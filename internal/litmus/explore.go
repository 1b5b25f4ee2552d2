package litmus

import (
	"fmt"
	"math/bits"
)

// explorer is the breadth-first kernel behind the reference, drain-slack
// and machine-stream explorers, which only supply a successor function
// over a control key K embedding an interned image id. Images change only
// through dense per-program actions (store ordinal i < len(pl.stores),
// then one flush per dense line, then the pcommit drain). An action's
// effect is a pure function of the image, so trans[id*nAct+a] memoizes it
// (successor id plus one; zero: not computed yet): only a memo miss
// rewrites an image, and only a new image has its crash outcomes
// collected. The queue keeps every state enqueued, in BFS order, so it
// doubles as the visited set: index is an open-addressing table of queue
// positions plus one (zero: empty), kept at most half full.
type explorer[K stateKey] struct {
	pl    *plan
	nAct  int
	set   map[string]struct{}
	imgs  []memState
	ids   map[memState]uint32
	trans []uint32
	queue []K
	index []uint32
	shift uint // 64 - log2(len(index))
}

// stateKey is an explorer state; find scrambles its hash before use.
type stateKey interface {
	comparable
	hash() uint64
}

// flushAct and drainAct name the non-store actions.
func (pl *plan) flushAct(li int) int { return len(pl.stores) + li }
func (pl *plan) drainAct() int       { return len(pl.stores) + len(pl.lines) }

// explore runs the BFS from the all-zero state and returns the crash
// outcomes of every reachable image and the number of states visited.
// The cap is checked before each dequeue, so an error reports the
// visited count at the moment the budget was first exceeded.
func explore[K stateKey](pl *plan, maxStates int, who string, succ func(x *explorer[K], k K)) (map[string]struct{}, int, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	x := &explorer[K]{pl: pl, nAct: pl.drainAct() + 1, set: make(map[string]struct{}), ids: make(map[memState]uint32)}
	x.intern(&memState{})
	x.push(*new(K)) // the all-zero start state
	for head := 0; head < len(x.queue); head++ {
		if len(x.queue) > maxStates {
			return nil, len(x.queue), fmt.Errorf("litmus: %s explorer exceeded %d states on %q: %w", who, maxStates, pl.p.Name, ErrStateCap)
		}
		succ(x, x.queue[head])
	}
	return x.set, len(x.queue), nil
}

// step returns the id of the image action a makes of image id.
func (x *explorer[K]) step(id uint32, a int) uint32 {
	i := int(id)*x.nAct + a
	if next := x.trans[i]; next != 0 {
		return next - 1
	}
	m := x.imgs[id]
	switch pl := x.pl; {
	case a < len(pl.stores):
		pl.storeLoc(&m, pl.locIdx[pl.stores[a].Loc], pl.stores[a].Val)
	case a < pl.drainAct():
		pl.flushLine(&m, a-len(pl.stores))
	default:
		pl.drainWPQ(&m)
	}
	next := x.intern(&m)
	x.trans[i] = next + 1
	return next
}

func (x *explorer[K]) intern(m *memState) uint32 {
	if id, ok := x.ids[*m]; ok {
		return id
	}
	id := uint32(len(x.imgs))
	x.imgs = append(x.imgs, *m)
	x.ids[*m] = id
	x.trans = append(x.trans, make([]uint32, x.nAct)...)
	x.pl.crashOutcomes(m, x.set)
	return id
}

// push enqueues a state the first time it is seen.
func (x *explorer[K]) push(k K) {
	if 2*len(x.queue) >= len(x.index) {
		x.rehash(max(64, 2*len(x.index)))
	}
	if i, seen := x.find(k); !seen {
		x.queue = append(x.queue, k)
		x.index[i] = uint32(len(x.queue))
	}
}

// find linearly probes from k's home slot (the top bits of its
// Fibonacci-scrambled hash) to k's slot or the first empty one.
func (x *explorer[K]) find(k K) (int, bool) {
	i := int(k.hash() * 0x9e3779b97f4a7c15 >> x.shift)
	for ; x.index[i] != 0; i = (i + 1) & (len(x.index) - 1) {
		if x.queue[x.index[i]-1] == k {
			return i, true
		}
	}
	return i, false
}

// rehash rebuilds index at size slots (a power of two) from the queue.
func (x *explorer[K]) rehash(size int) {
	x.index = make([]uint32, size)
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for j, k := range x.queue {
		i, _ := x.find(k)
		x.index[i] = uint32(j + 1)
	}
}
