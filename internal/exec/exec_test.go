package exec

import (
	"bytes"
	"math/rand"
	"testing"

	"specpersist/internal/isa"
	"specpersist/internal/pmem"
	"specpersist/internal/trace"
)

func newTraced(level Level) (*Env, *trace.Buffer) {
	var buf trace.Buffer
	e := New()
	e.Level = level
	e.SetBuilder(trace.NewBuilder(trace.NewValidator(&buf)))
	return e, &buf
}

func countOps(buf *trace.Buffer, op isa.Op) int {
	n := 0
	for _, in := range buf.Instrs() {
		if in.Op == op {
			n++
		}
	}
	return n
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{LevelLog: "Log", LevelLogP: "Log+P", LevelFull: "Log+P+Sf", Level(9): "invalid"} {
		if l.String() != want {
			t.Errorf("%d.String() = %q want %q", l, l.String(), want)
		}
	}
}

func TestLoadStoreU64(t *testing.T) {
	e, buf := newTraced(LevelFull)
	addr := e.AllocLines(1)
	e.StoreU64(addr, 77, isa.NoReg, isa.NoReg)
	v, r := e.LoadU64(addr, isa.NoReg)
	if v != 77 {
		t.Errorf("loaded %d, want 77", v)
	}
	if r == isa.NoReg {
		t.Error("load produced no register")
	}
	if countOps(buf, isa.Store) != 1 || countOps(buf, isa.Load) != 1 {
		t.Errorf("trace: %d stores, %d loads", countOps(buf, isa.Store), countOps(buf, isa.Load))
	}
}

func TestBytesChunking(t *testing.T) {
	e, buf := newTraced(LevelFull)
	addr := e.AllocLines(4)
	data := make([]byte, 100) // 12 chunks of 8 + 1 of 4
	for i := range data {
		data[i] = byte(i)
	}
	e.StoreBytes(addr, data, isa.NoReg, isa.NoReg)
	got, dep := e.LoadBytes(addr, 100, isa.NoReg)
	if !bytes.Equal(got, data) {
		t.Error("LoadBytes round trip failed")
	}
	if dep == isa.NoReg {
		t.Error("LoadBytes produced no dependence handle")
	}
	if n := countOps(buf, isa.Store); n != 13 {
		t.Errorf("stores = %d, want 13", n)
	}
	if n := countOps(buf, isa.Load); n != 13 {
		t.Errorf("loads = %d, want 13", n)
	}
}

func TestFullLevelEmitsEverything(t *testing.T) {
	e, buf := newTraced(LevelFull)
	addr := e.AllocLines(1)
	e.StoreU64(addr, 1, isa.NoReg, isa.NoReg)
	e.Clwb(addr)
	e.PersistBarrier()
	if countOps(buf, isa.Clwb) != 1 || countOps(buf, isa.Pcommit) != 1 || countOps(buf, isa.Sfence) != 2 {
		t.Errorf("trace ops: clwb=%d pcommit=%d sfence=%d",
			countOps(buf, isa.Clwb), countOps(buf, isa.Pcommit), countOps(buf, isa.Sfence))
	}
	if !e.M.DurableEquals(addr) {
		t.Error("line not durable after barrier")
	}
}

func TestLogLevelElidesPMEM(t *testing.T) {
	e, buf := newTraced(LevelLog)
	addr := e.AllocLines(1)
	e.StoreU64(addr, 1, isa.NoReg, isa.NoReg)
	e.Clwb(addr)
	e.Clflushopt(addr)
	e.PersistBarrier()
	for _, op := range []isa.Op{isa.Clwb, isa.Clflushopt, isa.Pcommit, isa.Sfence} {
		if n := countOps(buf, op); n != 0 {
			t.Errorf("%v emitted %d times at LevelLog", op, n)
		}
	}
	if e.M.DurableEquals(addr) && e.M.ReadU64(addr) != 0 {
		t.Error("LevelLog made data durable")
	}
	if st := e.M.Stats(); st.Pcommits != 0 || st.Clwbs != 0 {
		t.Errorf("functional PMEM ops ran at LevelLog: %+v", st)
	}
}

func TestLogPLevelElidesOnlyFences(t *testing.T) {
	e, buf := newTraced(LevelLogP)
	addr := e.AllocLines(1)
	e.StoreU64(addr, 1, isa.NoReg, isa.NoReg)
	e.Clwb(addr)
	e.PersistBarrier()
	if countOps(buf, isa.Clwb) != 1 || countOps(buf, isa.Pcommit) != 1 {
		t.Error("LevelLogP should emit PMEM instructions")
	}
	if countOps(buf, isa.Sfence) != 0 {
		t.Error("LevelLogP emitted sfence")
	}
	if !e.M.DurableEquals(addr) {
		t.Error("without adversary, LogP persists in order")
	}
}

func TestLogPAdversaryCanLoseOrdering(t *testing.T) {
	// With the ordering adversary, some runs leave the line in the WPQ
	// (clwb completed after pcommit). Across many seeds both outcomes
	// must occur.
	durable, lost := 0, 0
	for seed := int64(0); seed < 64; seed++ {
		e := New()
		e.Level = LevelLogP
		e.Reorder = rand.New(rand.NewSource(seed))
		addr := e.AllocLines(1)
		e.StoreU64(addr, 1, isa.NoReg, isa.NoReg)
		e.Clwb(addr)
		e.Pcommit()
		e.Crash(pmem.CrashOptions{})
		if e.M.ReadU64(addr) == 1 {
			durable++
		} else {
			lost++
		}
	}
	if durable == 0 || lost == 0 {
		t.Errorf("adversary outcomes not mixed: durable=%d lost=%d", durable, lost)
	}
}

func TestFullLevelNeverLosesOrdering(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		e := New()
		e.Level = LevelFull
		e.Reorder = rand.New(rand.NewSource(seed)) // must be ignored at Full
		addr := e.AllocLines(1)
		e.StoreU64(addr, 1, isa.NoReg, isa.NoReg)
		e.Clwb(addr)
		e.PersistBarrier()
		e.Crash(pmem.CrashOptions{})
		if e.M.ReadU64(addr) != 1 {
			t.Fatalf("seed %d: fenced persist lost", seed)
		}
	}
}

func TestFlushRange(t *testing.T) {
	e, buf := newTraced(LevelFull)
	addr := e.AllocLines(4)
	data := make([]byte, 256)
	for i := range data {
		data[i] = 0xAB
	}
	e.StoreBytes(addr, data, isa.NoReg, isa.NoReg)
	e.FlushRange(addr, 256)
	if n := countOps(buf, isa.Clwb); n != 4 {
		t.Errorf("FlushRange emitted %d clwbs, want 4", n)
	}
	e.PersistBarrier()
	for i := 0; i < 4; i++ {
		if !e.M.DurableEquals(addr + uint64(i*64)) {
			t.Errorf("line %d not durable", i)
		}
	}
}

func TestComputeEmitsALU(t *testing.T) {
	e, buf := newTraced(LevelFull)
	_, r := e.LoadU64(e.AllocLines(1), isa.NoReg)
	c := e.Compute(r)
	if c == isa.NoReg {
		t.Error("Compute returned no register")
	}
	c2 := e.B.ALU(3, c)
	if c2 == isa.NoReg {
		t.Error("ComputeLat returned no register")
	}
	if countOps(buf, isa.ALU) != 2 {
		t.Errorf("ALU count = %d, want 2", countOps(buf, isa.ALU))
	}
	// Check the latency made it into the trace.
	for _, in := range buf.Instrs() {
		if in.Op == isa.ALU && in.Dst == c2 && in.Lat != 3 {
			t.Errorf("ComputeLat latency = %d, want 3", in.Lat)
		}
	}
}

func TestUntracedEnvWorks(t *testing.T) {
	e := New() // no builder
	addr := e.AllocLines(1)
	e.StoreU64(addr, 5, isa.NoReg, isa.NoReg)
	v, r := e.LoadU64(addr, isa.NoReg)
	if v != 5 || r != isa.NoReg {
		t.Errorf("untraced: v=%d r=%d", v, r)
	}
	e.Clwb(addr)
	e.PersistBarrier()
	if !e.M.DurableEquals(addr) {
		t.Error("untraced persist failed")
	}
}

func TestWithHookRestores(t *testing.T) {
	e := New()
	outer := 0
	e.Hook = func() { outer++ }

	inner := 0
	func() {
		defer e.WithHook(func() { inner++ })()
		e.StoreU64(e.AllocLines(1), 1, isa.NoReg, isa.NoReg)
	}()
	if inner != 1 {
		t.Fatalf("inner hook fired %d times, want 1", inner)
	}
	e.StoreU64(e.AllocLines(1), 2, isa.NoReg, isa.NoReg)
	if outer != 1 {
		t.Fatalf("outer hook not restored: fired %d times, want 1", outer)
	}
	if inner != 1 {
		t.Fatalf("inner hook fired after restore")
	}
}

func TestWithHookRestoresAcrossPanic(t *testing.T) {
	e := New()
	type sig struct{}
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected panic")
			}
		}()
		defer e.WithHook(func() { panic(sig{}) })()
		e.StoreU64(e.AllocLines(1), 1, isa.NoReg, isa.NoReg)
	}()
	if e.Hook != nil {
		t.Fatal("hook left armed after panic")
	}
	// Must not panic now.
	e.StoreU64(e.AllocLines(1), 2, isa.NoReg, isa.NoReg)
}

// LoadBytes is LoadBytesInto reading into a fresh n-byte buffer.
func (e *Env) LoadBytes(addr uint64, n int, addrDep isa.Reg) ([]byte, isa.Reg) {
	buf := make([]byte, n)
	return buf, e.LoadBytesInto(buf, addr, addrDep)
}
