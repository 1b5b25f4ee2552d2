package txn

import (
	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
)

// The reference below is the map-based transaction the reused line sets
// replaced, kept as an independent oracle: each refTx makes its own Go
// maps, and its manager shares nothing across transactions or forks. The
// differential fuzz target in diff_test.go drives both through the same
// calls and requires identical traces, memory images and counters.

type refManager struct {
	env      *exec.Env
	hdr      uint64
	meta     uint64
	data     uint64
	capacity int
	active   *refTx
	stats    Stats
}

// newRefManager allocates the same log region NewManager does.
func newRefManager(env *exec.Env, capacity int) *refManager {
	metaLines := (capacity*8 + mem.LineSize - 1) / mem.LineSize
	m := &refManager{env: env, hdr: env.AllocLines(1), capacity: capacity}
	m.meta = env.AllocLines(metaLines)
	m.data = env.AllocLines(capacity)
	return m
}

func (m *refManager) fork(env *exec.Env) *refManager {
	if m.active != nil {
		panic("ref: fork inside a transaction")
	}
	c := *m
	c.env = env
	return &c
}

func (m *refManager) begin() *refTx {
	if m.active != nil {
		panic("ref: transaction already active")
	}
	t := &refTx{m: m, logged: map[uint64]struct{}{}}
	m.active = t
	return t
}

type refTx struct {
	m        *refManager
	n        int
	logged   map[uint64]struct{}
	fresh    map[uint64]struct{}
	touched  []uint64
	touchSet map[uint64]struct{}
	sealed   bool
}

// lines returns the line bases spanned by [addr, addr+size).
func lines(addr uint64, size int) []uint64 {
	var out []uint64
	base := mem.LineAddr(addr)
	for i := 0; i < mem.LinesSpanned(addr, size); i++ {
		out = append(out, base+uint64(i*mem.LineSize))
	}
	return out
}

func (t *refTx) log(addr uint64, size int, dep isa.Reg) {
	env := t.m.env
	var pre [mem.LineSize]byte
	for _, line := range lines(addr, size) {
		if _, ok := t.logged[line]; ok {
			continue
		}
		if t.n >= t.m.capacity {
			panic(&CapacityError{Capacity: t.m.capacity})
		}
		t.logged[line] = struct{}{}
		ld := env.LoadBytesInto(pre[:], line, dep)
		entry := t.m.data + uint64(t.n*mem.LineSize)
		env.StoreBytes(entry, pre[:], ld, isa.NoReg)
		env.StoreU64(t.m.meta+uint64(t.n*8), line, isa.NoReg, isa.NoReg)
		env.Clwb(entry)
		t.n++
	}
}

func (t *refTx) markFresh(addr uint64, size int) {
	if t.fresh == nil {
		t.fresh = map[uint64]struct{}{}
	}
	for _, line := range lines(addr, size) {
		t.fresh[line] = struct{}{}
	}
}

func (t *refTx) covered(addr uint64, size int) bool {
	for _, line := range lines(addr, size) {
		_, logged := t.logged[line]
		_, fresh := t.fresh[line]
		if !logged && !fresh {
			return false
		}
	}
	return true
}

func (t *refTx) setLogged() {
	t.sealed = true
	env := t.m.env
	env.FlushRange(t.m.meta, t.n*8)
	env.StoreU64(t.m.hdr+8, uint64(t.n), isa.NoReg, isa.NoReg)
	env.Clwb(t.m.hdr)
	env.PersistBarrier()
	env.StoreU64(t.m.hdr, 1, isa.NoReg, isa.NoReg)
	env.Clwb(t.m.hdr)
	env.PersistBarrier()
}

func (t *refTx) touch(addr uint64, size int) {
	if t.touchSet == nil {
		t.touchSet = map[uint64]struct{}{}
	}
	for _, line := range lines(addr, size) {
		if _, ok := t.touchSet[line]; ok {
			continue
		}
		t.touchSet[line] = struct{}{}
		t.touched = append(t.touched, line)
	}
}

func (t *refTx) commit() {
	env := t.m.env
	for _, line := range t.touched {
		env.Clwb(line)
	}
	env.PersistBarrier()
	env.StoreU64(t.m.hdr, 0, isa.NoReg, isa.NoReg)
	env.Clwb(t.m.hdr)
	env.PersistBarrier()
	t.m.stats.Txns++
	t.m.stats.Entries += uint64(t.n)
	if t.n > t.m.stats.MaxEntries {
		t.m.stats.MaxEntries = t.n
	}
	t.m.active = nil
}
