package cpu

// Dense replacements for the hot-path maps the profiler flagged
// (pendingReg, lineVis, storesByLine): a small open-addressed uint64 table
// with linear probing, and a register scoreboard whose entries carry an
// intrusive waiter chain so dependence wakeups are resolved once, at the
// producer's execute, instead of being re-queried by every consumer every
// cycle.

// mix64 is a Fibonacci-style hash for table indices.
func mix64(x uint64) uint64 {
	x *= 0x9E3779B97F4A7C15
	x ^= x >> 29
	return x
}

// u64Table maps uint64 keys to uint64 values. Keys are stored shifted by
// one so the zero word can mark empty slots; callers may therefore use any
// key except ^uint64(0).
type u64Table struct {
	keys []uint64 // key+1; 0 = empty
	vals []uint64
	n    int
}

func newU64Table(capHint int) *u64Table {
	size := 16
	for size < capHint*2 {
		size <<= 1
	}
	return &u64Table{keys: make([]uint64, size), vals: make([]uint64, size)}
}

// Len reports the number of live entries.
func (t *u64Table) Len() int { return t.n }

func (t *u64Table) get(key uint64) (uint64, bool) {
	mask := uint64(len(t.keys) - 1)
	k := key + 1
	for i := mix64(key) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return t.vals[i], true
		case 0:
			return 0, false
		}
	}
}

func (t *u64Table) put(key, val uint64) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	k := key + 1
	for i := mix64(key) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			t.vals[i] = val
			return
		case 0:
			t.keys[i] = k
			t.vals[i] = val
			t.n++
			return
		}
	}
}

// del removes key if present, compacting the probe run (backward-shift
// deletion) so lookups never need tombstones.
func (t *u64Table) del(key uint64) {
	mask := uint64(len(t.keys) - 1)
	k := key + 1
	i := mix64(key) & mask
	for t.keys[i] != k {
		if t.keys[i] == 0 {
			return
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		t.keys[j] = 0
		for {
			i = (i + 1) & mask
			if t.keys[i] == 0 {
				t.n--
				return
			}
			home := mix64(t.keys[i]-1) & mask
			// The entry at i may move into the vacated slot j only if j
			// lies on its probe path from home.
			if (j-home)&mask < (i-home)&mask {
				break
			}
		}
		t.keys[j], t.vals[j] = t.keys[i], t.vals[i]
		j = i
	}
}

// filter rebuilds the table keeping only entries keep approves; used for
// the occasional staleness sweeps so hot lookups stay allocation-free.
func (t *u64Table) filter(keep func(key, val uint64) bool) {
	keys, vals := t.keys, t.vals
	t.keys = make([]uint64, len(keys))
	t.vals = make([]uint64, len(vals))
	t.n = 0
	for i, k := range keys {
		if k != 0 && keep(k-1, vals[i]) {
			t.put(k-1, vals[i])
		}
	}
}

func (t *u64Table) clear() {
	clear(t.keys)
	t.n = 0
}

func (t *u64Table) grow() {
	keys, vals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(keys))
	t.vals = make([]uint64, 2*len(vals))
	t.n = 0
	for i, k := range keys {
		if k != 0 {
			t.put(k-1, vals[i])
		}
	}
}

// sbdSlot is one scoreboard entry: the in-flight producer of a register.
// done is regUnknown until the producer executes; chain heads the intrusive
// list of ROB entries waiting on the value (encoded slot*2+srcIndex, -1
// terminates).
type sbdSlot struct {
	key   uint32 // register number; 0 (isa.NoReg) marks an empty slot
	chain int32
	done  uint64
}

// scoreboard maps in-flight destination registers to their producer state.
// Capacity is sized off the ROB: at most one live producer per ROB entry.
type scoreboard struct {
	slots []sbdSlot
	n     int
}

func newScoreboard(robEntries int) *scoreboard {
	size := 64
	for size < robEntries*4 {
		size <<= 1
	}
	return &scoreboard{slots: make([]sbdSlot, size)}
}

func (s *scoreboard) lookup(reg uint32) *sbdSlot {
	mask := uint32(len(s.slots) - 1)
	for i := uint32(mix64(uint64(reg))) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.key == reg {
			return sl
		}
		if sl.key == 0 {
			return nil
		}
	}
}

// claim returns reg's slot, inserting an empty one (no producer state, no
// waiters) if the register is absent.
func (s *scoreboard) claim(reg uint32) *sbdSlot {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := uint32(len(s.slots) - 1)
	for i := uint32(mix64(uint64(reg))) & mask; ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.key == reg {
			return sl
		}
		if sl.key == 0 {
			*sl = sbdSlot{key: reg, chain: -1}
			s.n++
			return sl
		}
	}
}

// insertUnknown registers reg's producer as dispatched-but-not-executed.
// Re-inserting an existing register (a trace that rewrites a register)
// keeps the waiter chain: the waiters now wait on the newest producer,
// matching the map-based scheduler's always-re-read semantics.
func (s *scoreboard) insertUnknown(reg uint32) { s.claim(reg).done = regUnknown }

// put sets reg's producer state outright, inserting the register if absent
// (the chain fast-forward writes the scoreboard its batch would leave).
func (s *scoreboard) put(reg uint32, done uint64, chain int32) {
	sl := s.claim(reg)
	sl.done, sl.chain = done, chain
}

// del removes reg's entry (producer retired), backward-shifting the probe
// run. The caller must have drained the waiter chain first.
func (s *scoreboard) del(reg uint32) {
	mask := uint32(len(s.slots) - 1)
	i := uint32(mix64(uint64(reg))) & mask
	for s.slots[i].key != reg {
		if s.slots[i].key == 0 {
			return
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		s.slots[j] = sbdSlot{}
		for {
			i = (i + 1) & mask
			if s.slots[i].key == 0 {
				s.n--
				return
			}
			home := uint32(mix64(uint64(s.slots[i].key))) & mask
			if (j-home)&mask < (i-home)&mask {
				break
			}
		}
		s.slots[j] = s.slots[i]
		j = i
	}
}

func (s *scoreboard) clear() {
	clear(s.slots)
	s.n = 0
}

func (s *scoreboard) grow() {
	old := s.slots
	s.slots = make([]sbdSlot, 2*len(old))
	s.n = 0
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		if 2*(s.n+1) > len(s.slots) {
			panic("cpu: scoreboard grow invariant")
		}
		mask := uint32(len(s.slots) - 1)
		for i := uint32(mix64(uint64(sl.key))) & mask; ; i = (i + 1) & mask {
			if s.slots[i].key == 0 {
				s.slots[i] = sl
				s.n++
				break
			}
		}
	}
}

// wake is a scheduled readiness event: ROB slot becomes issuable at cycle t.
// seq guards against slot reuse after a rollback cleared the heap.
type wake struct {
	t    uint64
	slot int32
	seq  uint64
}

// wakeHeap is a binary min-heap by wake time.
type wakeHeap []wake

func (h *wakeHeap) push(w wake) {
	*h = append(*h, w)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].t <= s[i].t {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *wakeHeap) pop() wake {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l].t < s[m].t {
			m = l
		}
		if r < len(s) && s[r].t < s[m].t {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
