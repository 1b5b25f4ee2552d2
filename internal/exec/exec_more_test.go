package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"specpersist/internal/isa"
	"specpersist/internal/pmem"
)

func TestCrashDiscardsInFlightClwbs(t *testing.T) {
	// An adversary-pending clwb must not survive a crash and then be
	// applied to the post-crash state.
	// Find a seed whose first coin defers the clwb past the pcommit.
	seed := int64(-1)
	for s := int64(0); s < 64; s++ {
		if rand.New(rand.NewSource(s)).Intn(2) == 1 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no deferring seed in range")
	}
	e := New()
	e.Level = LevelLogP
	e.Reorder = rand.New(rand.NewSource(seed))
	addr := e.AllocLines(1)
	e.StoreU64(addr, 1, isa.NoReg, isa.NoReg)
	e.Clwb(addr)
	e.Pcommit() // clwb deferred: line still not in WPQ
	if e.M.LineState(addr) != pmem.Dirty {
		t.Fatal("clwb was not deferred despite the chosen seed")
	}
	e.Crash(pmem.CrashOptions{})
	// A later pcommit must not resurrect the in-flight clwb.
	e.Pcommit()
	if got := e.M.ReadU64(addr); got != 0 {
		t.Errorf("in-flight clwb applied after crash: value %d", got)
	}
}

func TestHookFiresOnAllStateChanges(t *testing.T) {
	e := New()
	n := 0
	e.Hook = func() { n++ }
	addr := e.AllocLines(1)
	e.StoreU64(addr, 1, isa.NoReg, isa.NoReg)
	e.StoreBytes(addr, make([]byte, 16), isa.NoReg, isa.NoReg)
	e.Clwb(addr)
	e.Clflushopt(addr)
	e.Pcommit()
	e.Sfence()
	if n != 6 {
		t.Errorf("hook fired %d times, want 6", n)
	}
	// Loads do not fire the hook (crash points between loads are
	// indistinguishable from crash points at the next store).
	e.LoadU64(addr, isa.NoReg)
	e.LoadBytes(addr, 8, isa.NoReg)
	if n != 6 {
		t.Errorf("hook fired on loads: %d", n)
	}
}

func TestPersistBarrierCountsAsOnePcommit(t *testing.T) {
	e := New()
	addr := e.AllocLines(1)
	e.StoreU64(addr, 1, isa.NoReg, isa.NoReg)
	e.Clwb(addr)
	e.PersistBarrier()
	st := e.M.Stats()
	if st.Pcommits != 1 || st.Sfences != 2 {
		t.Errorf("barrier stats: %+v", st)
	}
}

// TestBarrierCoalescing covers the group-commit primitive: while
// coalescing is on, PersistBarrier defers its trio; FlushBarriers issues
// exactly one real trio per batch that deferred anything, and an all-read
// batch issues nothing.
func TestBarrierCoalescing(t *testing.T) {
	e := New()
	addr := e.AllocLines(1)
	e.SetBarrierCoalescing(true)

	for i := 0; i < 4; i++ {
		e.StoreU64(addr, uint64(i), isa.NoReg, isa.NoReg)
		e.Clwb(addr)
		e.PersistBarrier()
	}
	if st := e.M.Stats(); st.Pcommits != 0 || st.Sfences != 0 {
		t.Fatalf("deferred barriers reached the device: %+v", st)
	}
	if got := e.DeferredBarriers(); got != 4 {
		t.Fatalf("DeferredBarriers = %d, want 4", got)
	}

	e.FlushBarriers()
	if st := e.M.Stats(); st.Pcommits != 1 || st.Sfences != 2 {
		t.Fatalf("flush must issue one trio, got %+v", st)
	}
	// A batch with no deferred barrier issues nothing.
	e.FlushBarriers()
	if st := e.M.Stats(); st.Pcommits != 1 {
		t.Fatalf("empty flush issued a pcommit: %+v", st)
	}

	// Coalescing off: PersistBarrier is immediate again and the deferred
	// count stops moving.
	e.SetBarrierCoalescing(false)
	e.PersistBarrier()
	if st := e.M.Stats(); st.Pcommits != 2 {
		t.Fatalf("immediate barrier after coalescing off: %+v", st)
	}
	if got := e.DeferredBarriers(); got != 4 {
		t.Fatalf("DeferredBarriers moved to %d with coalescing off", got)
	}
}

// TestForkResumesAdversary checks what Fork carries beyond the persistence
// model: the Log+P adversary continues its draw sequence exactly where the
// parent stands (compared with a plain source skipped by hand), in-flight
// clwbs and the group-commit state are copied, and the two envs then evolve
// independently.
func TestForkResumesAdversary(t *testing.T) {
	const seed = 42
	e := New()
	e.Level = LevelLogP
	e.SeedReorder(seed)
	e.SetBarrierCoalescing(true)
	addr := e.AllocLines(16)
	for i := uint64(0); i < 16; i++ {
		e.StoreU64(addr+i*64, i, isa.NoReg, isa.NoReg)
		e.Clwb(addr + i*64)
		if i%3 == 2 {
			e.Pcommit()
		}
	}
	e.PersistBarrier() // deferred under coalescing
	if len(e.pendingClwb) == 0 {
		t.Fatal("no clwb left in flight; pick another seed")
	}

	f := e.Fork()
	if f.M == e.M || f.Level != e.Level || f.DeferredBarriers() != e.DeferredBarriers() || !f.pendingTrio {
		t.Fatal("fork did not carry the model, level or group-commit state")
	}
	if !reflect.DeepEqual(f.pendingClwb, e.pendingClwb) {
		t.Fatalf("in-flight clwbs %v, want %v", f.pendingClwb, e.pendingClwb)
	}
	e.pendingClwb[0] ^= 1
	if f.pendingClwb[0] == e.pendingClwb[0] {
		t.Fatal("fork shares the parent's in-flight clwb list")
	}

	// A plain source skipped by hand is where both envs must stand.
	at := func() *rand.Rand {
		r := rand.New(rand.NewSource(seed))
		for i := uint64(0); i < e.reorderSrc.n; i++ {
			r.Int63()
		}
		return r
	}
	ref := at()
	for i := 0; i < 100; i++ {
		if got, want := f.Reorder.Int63(), ref.Int63(); got != want {
			t.Fatalf("fork draw %d = %d, want %d", i, got, want)
		}
	}
	if want := at().Int63(); e.Reorder.Int63() != want {
		t.Fatal("the fork's draws moved the parent's adversary")
	}
}
