package pstruct

import (
	"math/rand"
	"testing"

	"specpersist/internal/isa"
	"specpersist/internal/pmem"
	"specpersist/internal/trace"
)

func TestIncrementalBTreeOracle(t *testing.T) {
	env, mgr := newFullEnv(t)
	bt := NewBTree(env, mgr)
	bt.SetIncremental(true)
	if !bt.incremental {
		t.Fatal("SetIncremental did not stick")
	}
	env.M.PersistAll()
	// Audit is on (TestMain): any store outside the precise write set
	// panics, proving insertWriteSet is exactly sufficient.
	oracle := runOracle(t, bt, "BT", 3000, 300, 21)
	checkMembership(t, bt, "BT", oracle, 300)
}

func TestIncrementalBTreeSortedTorture(t *testing.T) {
	env, mgr := newFullEnv(t)
	bt := NewBTree(env, mgr)
	bt.SetIncremental(true)
	for k := 0; k < 512; k++ {
		bt.Apply(uint64(k))
	}
	if err := bt.Check(); err != nil {
		t.Fatal(err)
	}
	if bt.Size() != 512 {
		t.Fatalf("size %d", bt.Size())
	}
	// Deletes fall back to full logging; mix them in.
	for k := 0; k < 512; k += 2 {
		bt.Apply(uint64(k))
	}
	if err := bt.Check(); err != nil {
		t.Fatal(err)
	}
	if bt.Size() != 256 {
		t.Fatalf("size %d", bt.Size())
	}
}

// TestIncrementalTradeoff measures the policy trade-off the paper
// describes: incremental logging writes fewer log entries but issues more
// persist barriers.
func TestIncrementalTradeoff(t *testing.T) {
	run := func(incremental bool) (pcommits, logLoads uint64) {
		env, mgr := newFullEnv(t)
		var cnt trace.CountSink
		env.SetBuilder(trace.NewBuilder(&cnt))
		bt := NewBTree(env, mgr)
		bt.SetIncremental(incremental)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 400; i++ {
			bt.Apply(uint64(rng.Intn(1 << 30))) // inserts only (fresh keys)
		}
		return cnt.Count(isa.Pcommit), cnt.Count(isa.Load)
	}
	fullPc, fullLoads := run(false)
	incPc, incLoads := run(true)
	if incPc <= fullPc {
		t.Errorf("incremental pcommits %d not above full logging's %d (per-step barriers missing)", incPc, fullPc)
	}
	if incLoads >= fullLoads {
		t.Errorf("incremental loads %d not below full logging's %d (should log fewer nodes)", incLoads, fullLoads)
	}
}

func TestIncrementalCrashAtomicity(t *testing.T) {
	env, mgr := newFullEnv(t)
	bt := NewBTree(env, mgr)
	bt.SetIncremental(true)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 150; i++ {
		bt.Apply(uint64(rng.Intn(60)))
	}
	crashRng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 100; trial++ {
		key := uint64(rng.Intn(60))
		pre := snapshotKeys(bt, "BT", 60)
		if !applyWithCrash(env, bt, key, trial%89) {
			continue
		}
		env.Crash(pmem.CrashOptions{EvictFrac: 0.3, DrainFrac: 0.5, Rand: crashRng})
		mgr.Recover()
		if err := bt.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := snapshotKeys(bt, "BT", 60)
		post := make(map[uint64]bool, len(pre))
		for k, v := range pre {
			post[k] = v
		}
		post[key] = !post[key]
		if !equalSets(got, pre) && !equalSets(got, post) {
			t.Fatalf("trial %d: membership neither pre nor post", trial)
		}
	}
}
