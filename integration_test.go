package specpersist

import (
	"math/rand"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
	"specpersist/internal/workload"
)

// TestEndToEndFunctionalTimingConsistency runs a transactional workload
// once, capturing the trace, and cross-checks the two models: every
// instruction the functional layer emitted must commit in the timing
// model, and the persistence-instruction counts must agree between the
// functional persistence model, the trace, and the core's retirement
// statistics.
func TestEndToEndFunctionalTimingConsistency(t *testing.T) {
	env := exec.New()
	env.Level = exec.LevelFull
	mgr := txn.NewManager(env, 256)
	s := pstruct.NewHashMap(env, mgr, 64)
	env.M.PersistAll()
	env.M.ResetStats()

	var tr trace.Buffer
	var cnt trace.CountSink
	env.SetBuilder(trace.NewBuilder(trace.Tee{&tr, &cnt}))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		s.Apply(uint64(rng.Intn(128)))
	}
	env.SetBuilder(nil)
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}

	fstats := env.M.Stats()
	// Functional model vs emitted trace.
	if cnt.Count(isa.Pcommit) != fstats.Pcommits {
		t.Errorf("trace pcommits %d != functional %d", cnt.Count(isa.Pcommit), fstats.Pcommits)
	}
	if cnt.Count(isa.Sfence) != fstats.Sfences {
		t.Errorf("trace sfences %d != functional %d", cnt.Count(isa.Sfence), fstats.Sfences)
	}
	if got := cnt.Count(isa.Clwb) + cnt.Count(isa.Clflushopt); got != fstats.Clwbs {
		t.Errorf("trace flushes %d != functional %d", got, fstats.Clwbs)
	}

	// Timing model vs emitted trace, for both hardware configurations.
	for _, v := range []core.Variant{core.VariantLogPSf, core.VariantSP} {
		sys := core.New(core.DefaultOptions().For(v), nil)
		tr.Rewind()
		st := sys.Run(&tr)
		if st.Committed != uint64(tr.Len()) {
			t.Errorf("%v: committed %d of %d", v, st.Committed, tr.Len())
		}
		if st.Pcommits != fstats.Pcommits {
			t.Errorf("%v: retired pcommits %d != functional %d", v, st.Pcommits, fstats.Pcommits)
		}
		if st.Sfences != fstats.Sfences {
			t.Errorf("%v: retired sfences %d != functional %d", v, st.Sfences, fstats.Sfences)
		}
		if st.Clwbs+st.Clflushes != fstats.Clwbs {
			t.Errorf("%v: retired flushes %d != functional %d", v, st.Clwbs+st.Clflushes, fstats.Clwbs)
		}
	}
}

// TestEndToEndTransactionBarrierBudget verifies the paper's §3.1 cost
// accounting end to end: a workload of N non-resizing transactional
// updates issues exactly 4N pcommits and 8N sfences.
func TestEndToEndTransactionBarrierBudget(t *testing.T) {
	env := exec.New()
	env.Level = exec.LevelFull
	mgr := txn.NewManager(env, 64)
	l := pstruct.NewList(env, mgr)
	var cnt trace.CountSink
	env.SetBuilder(trace.NewBuilder(&cnt))
	const n = 100
	for i := 0; i < n; i++ {
		l.Apply(uint64(i))
	}
	if cnt.Count(isa.Pcommit) != 4*n {
		t.Errorf("pcommits = %d, want %d", cnt.Count(isa.Pcommit), 4*n)
	}
	if cnt.Count(isa.Sfence) != 8*n {
		t.Errorf("sfences = %d, want %d", cnt.Count(isa.Sfence), 8*n)
	}
}

// TestEndToEndDeterminism: the same seed yields bit-identical statistics.
func TestEndToEndDeterminism(t *testing.T) {
	b, err := workload.FindBench("BT")
	if err != nil {
		t.Fatal(err)
	}
	rc := workload.RunConfig{Variant: core.VariantSP, Scale: 0.002, Seed: 5, OpOverhead: 50}
	r1 := workload.MustRun(b, rc)
	r2 := workload.MustRun(b, rc)
	if r1.Stats != r2.Stats {
		t.Errorf("non-deterministic run:\n%+v\nvs\n%+v", r1.Stats, r2.Stats)
	}
}

// TestEndToEndMultiController runs a workload on a 2-controller system and
// checks pcommit semantics still hold (everything drains, work preserved).
func TestEndToEndMultiController(t *testing.T) {
	b, err := workload.FindBench("HM")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Controllers = 2
	rc := workload.RunConfig{Variant: core.VariantLogPSf, Scale: 0.002, Seed: 6, OpOverhead: 50, Options: &opts}
	r := workload.MustRun(b, rc)
	single := workload.MustRun(b, workload.RunConfig{Variant: core.VariantLogPSf, Scale: 0.002, Seed: 6, OpOverhead: 50})
	if r.Stats.Committed != single.Stats.Committed {
		t.Errorf("multi-controller committed %d != single %d", r.Stats.Committed, single.Stats.Committed)
	}
	if r.Stats.Pcommits != single.Stats.Pcommits {
		t.Errorf("multi-controller pcommits %d != single %d", r.Stats.Pcommits, single.Stats.Pcommits)
	}
	if r.Stats.Cycles == 0 {
		t.Error("empty multi-controller run")
	}
}

// TestEndToEndSPMatchesVariantSemantics: SP commits the same memory image
// as the stalling pipeline — the functional state after the run is
// identical because both consume the same trace; here we assert the
// *statistics invariants* that encode it.
func TestEndToEndSPStatsSane(t *testing.T) {
	b, _ := workload.FindBench("LL")
	r := workload.MustRun(b, workload.RunConfig{Variant: core.VariantSP, Scale: 0.005, Seed: 8, OpOverhead: 200})
	st := r.Stats
	if st.SpecEntries == 0 || st.SpecEpochs < st.SpecEntries {
		t.Errorf("speculation stats inconsistent: entries %d epochs %d", st.SpecEntries, st.SpecEpochs)
	}
	if st.CheckpointsMaxUsed > 4 {
		t.Errorf("checkpoints exceeded capacity: %d", st.CheckpointsMaxUsed)
	}
	if st.SSBMaxUsed > 256 {
		t.Errorf("SSB exceeded capacity: %d", st.SSBMaxUsed)
	}
	if st.BloomPositives > st.BloomQueries {
		t.Errorf("bloom positives %d > queries %d", st.BloomPositives, st.BloomQueries)
	}
	if st.BloomFalsePositives > st.BloomPositives {
		t.Errorf("bloom false positives %d > positives %d", st.BloomFalsePositives, st.BloomPositives)
	}
}
