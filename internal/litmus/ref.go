package litmus

import (
	"encoding/binary"
	"errors"
)

// ErrStateCap marks a state-budget overflow in either explorer. Campaigns
// count capped trials explicitly (never silently truncating coverage) and
// carry on; everything else treats it as a harness error.
var ErrStateCap = errors.New("state cap exceeded")

// Semantics selects the reference memory model. The zero value is the
// deliberately broken model used as a negative control; use Strict() for
// the real Px86-with-persist-buffers semantics.
type Semantics struct {
	// SfenceOrdersFlushes gives sfence its persist-ordering edge: every
	// flush this thread issued must complete (reach the controller WPQ)
	// before the thread proceeds past the fence — the edge that makes the
	// sfence; pcommit; sfence trio a persist barrier. Dropping it is the
	// negative-control weakening: a later pcommit may then drain the WPQ
	// before the flush lands, so "flushed before the barrier" no longer
	// implies durable, and forbidden outcomes of the curated tests become
	// reachable.
	SfenceOrdersFlushes bool
}

// Strict returns the real reference semantics.
func Strict() Semantics { return Semantics{SfenceOrdersFlushes: true} }

// Weakened returns the negative-control semantics (no sfence→pcommit
// ordering edge).
func Weakened() Semantics { return Semantics{} }

func (s Semantics) String() string {
	if s.SfenceOrdersFlushes {
		return "strict"
	}
	return "weakened"
}

// DefaultMaxStates bounds both explorers' interleaving state spaces. The
// caps in Validate keep real programs far below it; hitting the bound is
// reported as a harness error, never a panic. The explorer kernel interns
// images, so a visited state costs its 16-byte key plus 8–16 bytes of hash
// index, not a 194-byte image: that makes a budget this size affordable.
const DefaultMaxStates = 1_000_000

// refKey is one explored interpreter state: the persistence state (as an
// interned image id — the 194-byte images repeat heavily across control
// states) plus each thread's program counter, the number of its stores
// drained from the store buffer, and the set of lines with issued but not
// yet completed flushes. The store buffer's contents need no explicit
// field — they are exactly the program's stores with ordinal in
// [drained, executed).
type refKey struct {
	mem     uint32
	pc      [MaxThreads]uint8
	drained [MaxThreads]uint8 // per-thread count of store-buffer drains
	pending [MaxThreads]uint8 // per-thread line mask of in-flight flushes
}

func (k refKey) hash() uint64 {
	le := binary.LittleEndian
	return uint64(k.mem)<<32 | uint64(le.Uint32(k.pc[:])) ^
		(uint64(le.Uint32(k.drained[:]))|uint64(le.Uint32(k.pending[:]))<<32)*0xbf58476d1ce4e5b9
}

// refThread is a thread's store-buffer ordering metadata: storesBefore[i]
// counts the stores among ops[0:i] (so storesBefore[pc] is how many have
// EXECUTED), needDrain[i] is how many of them must have DRAINED before
// op i may step — the last same-line store's ordinal for a flush (clwb is
// ordered only against older stores to its own line), every executed
// store for an sfence (the fence completes the store buffer), zero
// otherwise.
type refThread struct {
	storesBefore []int
	needDrain    []int
}

func buildRefThreads(pl *plan) []refThread {
	out := make([]refThread, len(pl.p.Threads))
	for t, ops := range pl.p.Threads {
		th := &out[t]
		th.storesBefore = make([]int, len(ops)+1)
		th.needDrain = make([]int, len(ops))
		stores := 0
		lastSameLine := make(map[int]int) // dense line -> last store ordinal + 1
		for i, op := range ops {
			th.storesBefore[i] = stores
			switch op.Kind {
			case OpStore:
				stores++
				lastSameLine[pl.locs[pl.locIdx[op.Loc]].line] = stores
			case OpClwb, OpClflushOpt:
				th.needDrain[i] = lastSameLine[pl.locs[pl.locIdx[op.Loc]].line]
			case OpSfence:
				th.needDrain[i] = stores
			}
		}
		th.storesBefore[len(ops)] = stores
	}
	return out
}

// Enumerate computes the complete allowed crash-visible outcome set of a
// program under the reference semantics: a breadth-first enumeration of
// every interleaving of thread steps and asynchronous flush completions,
// collecting the crash outcomes of every reachable state. The model is
// the executable form of Px86 with persist buffers specialized to this
// simulator's pmem rules:
//
//   - stores RETIRE in program order into a per-thread store buffer and
//     DRAIN to the shared volatile view lazily, FIFO — x86-TSO. The
//     drain slack is observable: a younger flush to a different line may
//     snapshot before an older buffered store lands;
//   - clwb/clflushopt are ordered only against older stores to their OWN
//     line (those must drain first); they ISSUE at their program point
//     but COMPLETE asynchronously: the line snapshot reaches the WPQ at
//     any later interleaving point (or never, if the crash comes first);
//   - sfence completes the thread's store buffer, and (strict semantics)
//     forces its in-flight flushes to complete before later ops;
//   - pcommit atomically drains every WPQ snapshot to durable NVM;
//   - a crash can strike between any two transitions, and per 8-byte
//     chunk independently keeps the durable image, drains the WPQ
//     snapshot, or persists a dirty line via spontaneous eviction.
//
// maxStates <= 0 means DefaultMaxStates. Returns the outcome set, the
// number of interpreter states explored, and an error if the state cap
// was exceeded.
func (s Semantics) Enumerate(p *Program, maxStates int) (map[string]struct{}, int, error) {
	pl, err := compile(p)
	if err != nil {
		return nil, 0, err
	}
	return s.enumerate(pl, maxStates)
}

func (s Semantics) enumerate(pl *plan, maxStates int) (map[string]struct{}, int, error) {
	threads := buildRefThreads(pl)
	return explore(&refExplorers, pl, maxStates, "reference", func(x *explorer[refKey], k refKey) {
		for t := range pl.p.Threads {
			th := &threads[t]
			// Asynchronous flush completions: any single in-flight flush
			// may land now.
			for li := range pl.lines {
				bit := uint8(1) << li
				if k.pending[t]&bit == 0 {
					continue
				}
				next := k
				next.mem = x.step(k.mem, pl.flushAct(li))
				next.pending[t] &^= bit
				x.push(next)
			}
			// Store-buffer drain: the thread's oldest buffered store may
			// become globally visible now. (Crashes lose the buffer — a
			// state's crash outcomes see only drained stores.)
			if d := int(k.drained[t]); d < th.storesBefore[k.pc[t]] {
				next := k
				next.mem = x.step(k.mem, pl.storeBase[t]+d)
				next.drained[t]++
				x.push(next)
			}
			// Program step, gated on the op's drain requirement (same-line
			// stores for a flush, the whole buffer for an sfence).
			ops := pl.p.Threads[t]
			pc := int(k.pc[t])
			if pc >= len(ops) || th.needDrain[pc] > int(k.drained[t]) {
				continue
			}
			next := k
			next.pc[t]++
			switch ops[pc].Kind {
			case OpStore:
				// Retires into the store buffer; visibility comes from the
				// drain transition above.
			case OpClwb, OpClflushOpt:
				next.pending[t] |= 1 << pl.locs[pl.locIdx[ops[pc].Loc]].line
			case OpSfence:
				if s.SfenceOrdersFlushes {
					// Flushes of distinct lines commute, so the fence
					// lands them as memoized single-line flushes.
					for li := range pl.lines {
						if next.pending[t]&(1<<li) != 0 {
							next.mem = x.step(next.mem, pl.flushAct(li))
						}
					}
					next.pending[t] = 0
				}
			case OpPcommit:
				next.mem = x.step(k.mem, pl.drainAct())
			case OpLoad, OpNop:
				// No persistence effect.
			}
			x.push(next)
		}
	})
}
