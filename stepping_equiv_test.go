package specpersist

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/multicore"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
)

// These tests pin the scheduler redesign to the original algorithms: the
// CPU keeps its pre-rewrite stepping path behind SetReferenceStepping, and
// every run here must be byte-identical between the two — same Stats, same
// commit log (exact event order, not the canonicalized fault-harness
// comparison: both runs are the *same* machine, so even legal reorderings
// would be a divergence), same metric snapshot.

// materializeEquivTrace functionally executes a structure's operation
// stream, each operation behind a chain-long application preamble (0 =
// none), and returns the traced measured phase plus the distinct store
// lines it touches (the conflict surface for forced rollbacks).
func materializeEquivTrace(t *testing.T, structure string, seed int64, warmup, ops, chain int) (*trace.Buffer, []uint64) {
	t.Helper()
	buf := &trace.Buffer{}
	env := exec.New()
	env.Level = exec.LevelFull
	mgr := txn.NewManager(env, 2048)
	s := pstruct.Build(structure, env, mgr, pstruct.DefaultConfig())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < warmup; i++ {
		s.Apply(rng.Uint64() % 512)
	}
	env.M.PersistAll()
	bld := trace.NewBuilder(buf)
	env.SetBuilder(bld)
	for i := 0; i < ops; i++ {
		bld.Chain(chain)
		s.Apply(rng.Uint64() % 512)
	}
	env.SetBuilder(nil)
	if err := s.Check(); err != nil {
		t.Fatalf("%s: structure check: %v", structure, err)
	}

	var lines []uint64
	seen := make(map[uint64]bool)
	for _, in := range buf.Instrs() {
		if in.Op == isa.Store {
			if l := mem.LineAddr(in.Addr); !seen[l] {
				seen[l] = true
				lines = append(lines, l)
			}
		}
	}
	return buf, lines
}

// runEquiv replays buf on a fresh system, optionally under the reference
// scheduler, and returns everything observable about the run.
func runEquiv(v core.Variant, buf *trace.Buffer, ref bool) (cpu.Stats, []cpu.CommitEvent, obs.Snapshot) {
	sys := core.New(core.DefaultOptions().For(v), nil)
	sys.CPU.SetReferenceStepping(ref)
	sys.CPU.EnableCommitLog()
	buf.Rewind()
	st := sys.Run(buf)
	return st, sys.CPU.CommitLog(), sys.Metrics()
}

func compareRuns(t *testing.T, label string, v core.Variant, buf *trace.Buffer) {
	t.Helper()
	fastSt, fastLog, fastM := runEquiv(v, buf, false)
	refSt, refLog, refM := runEquiv(v, buf, true)
	if fastSt != refSt {
		t.Errorf("%s/%v: stats diverge:\nfast %+v\nref  %+v", label, v, fastSt, refSt)
	}
	if !reflect.DeepEqual(fastLog, refLog) {
		t.Errorf("%s/%v: commit logs diverge (fast %d events, ref %d)", label, v, len(fastLog), len(refLog))
	}
	if !reflect.DeepEqual(fastM, refM) {
		t.Errorf("%s/%v: metric snapshots diverge", label, v)
	}
}

// preambleLens are the application-preamble chain lengths the suite runs
// every structure with: none, chains around the 48-entry issue and fetch
// queues, and the serving (200) and paper-suite (1,600) preambles, which
// the fast path covers with the chain fast-forward.
var preambleLens = []int{0, 1, 47, 48, 49, 200, 1600}

// TestSteppingEquivalenceStructures replays every Table 1 structure's trace
// under the stalling and speculative machines in both stepping modes.
func TestSteppingEquivalenceStructures(t *testing.T) {
	for _, name := range pstruct.Names() {
		for _, chain := range preambleLens {
			buf, _ := materializeEquivTrace(t, name, 41, 64, 24, chain)
			for _, v := range []core.Variant{core.VariantLogPSf, core.VariantSP} {
				compareRuns(t, fmt.Sprintf("%s/chain%d", name, chain), v, buf)
			}
		}
	}
}

// TestSteppingEquivalenceChainRollback forces coherence-probe rollbacks on
// the speculating core of every structure while it runs preamble chains,
// driven the way the multi-core schedulers drive cores: the fast path
// steps with a horizon at the next probe cycle, so chains fast-forward up
// to the probe and the rollback squashes chain links in flight. The
// reference scheduler, probed at the same cycles, must end identically.
func TestSteppingEquivalenceChainRollback(t *testing.T) {
	const period = 1500
	for _, name := range pstruct.Names() {
		for _, chain := range []int{200, 1600} {
			buf, lines := materializeEquivTrace(t, name, 29, 64, 12, chain)
			run := func(ref bool) (cpu.Stats, []cpu.CommitEvent, obs.Snapshot) {
				sys := core.New(core.DefaultOptions().For(core.VariantSP), nil)
				sys.CPU.SetReferenceStepping(ref)
				sys.CPU.EnableCommitLog()
				buf.Rewind()
				sys.CPU.Start(buf)
				rolled := 0
				for fire := uint64(period); sys.CPU.StepTo(fire); {
					if sys.CPU.Now() < fire {
						continue
					}
					fire += period
					for _, a := range lines {
						if rolled < 3 && sys.CPU.CoherenceProbe(a) {
							rolled++
							break
						}
					}
				}
				return sys.CPU.Stats(), sys.CPU.CommitLog(), sys.Metrics()
			}
			label := fmt.Sprintf("%s/chain%d", name, chain)
			fastSt, fastLog, fastM := run(false)
			refSt, refLog, refM := run(true)
			if fastSt.Rollbacks == 0 {
				t.Errorf("%s: no rollback triggered", label)
			}
			if fastSt != refSt {
				t.Errorf("%s: stats diverge:\nfast %+v\nref  %+v", label, fastSt, refSt)
			}
			if !reflect.DeepEqual(fastLog, refLog) {
				t.Errorf("%s: commit logs diverge (fast %d events, ref %d)", label, len(fastLog), len(refLog))
			}
			if !reflect.DeepEqual(fastM, refM) {
				t.Errorf("%s: metric snapshots diverge", label)
			}
		}
	}
}

// TestSteppingEquivalenceForcedRollback forces a coherence-probe rollback
// mid-speculation (the §4.2.2 squash path exercises the scheduler's full
// state reset) and requires both modes to roll back and converge.
func TestSteppingEquivalenceForcedRollback(t *testing.T) {
	buf, lines := materializeEquivTrace(t, "HM", 17, 64, 16, 0)
	run := func(ref bool) (cpu.Stats, []cpu.CommitEvent, obs.Snapshot) {
		sys := core.New(core.DefaultOptions().For(core.VariantSP), nil)
		sys.CPU.SetReferenceStepping(ref)
		sys.CPU.EnableCommitLog()
		rolled := false
		sys.CPU.OnCycle(func(c *cpu.CPU) {
			if rolled {
				return
			}
			for _, a := range lines {
				if c.CoherenceProbe(a) {
					rolled = true
					return
				}
			}
		})
		buf.Rewind()
		st := sys.Run(buf)
		return st, sys.CPU.CommitLog(), sys.Metrics()
	}
	fastSt, fastLog, fastM := run(false)
	refSt, refLog, refM := run(true)
	if fastSt.Rollbacks == 0 || refSt.Rollbacks == 0 {
		t.Fatalf("no rollback triggered: fast %d, ref %d", fastSt.Rollbacks, refSt.Rollbacks)
	}
	if fastSt != refSt {
		t.Errorf("rollback stats diverge:\nfast %+v\nref  %+v", fastSt, refSt)
	}
	if !reflect.DeepEqual(fastLog, refLog) {
		t.Errorf("rollback commit logs diverge (fast %d events, ref %d)", len(fastLog), len(refLog))
	}
	if !reflect.DeepEqual(fastM, refM) {
		t.Errorf("rollback metric snapshots diverge")
	}
}

// TestSteppingEquivalenceMulticore runs the 2-core conflict engine — a
// speculating workload core under fire from an adversary core storing to
// its lines, the same shape as the fault harness's real-probe differential
// — in both modes, with and without preamble chains (both cores' chains
// fast-forward up to the scheduler's horizons), and requires identical
// machine-wide outcomes, including the probe/NACK/rollback counters.
func TestSteppingEquivalenceMulticore(t *testing.T) {
	for _, chain := range []int{0, 200} {
		t.Run(fmt.Sprintf("chain%d", chain), func(t *testing.T) { multicoreEquiv(t, chain) })
	}
}

func multicoreEquiv(t *testing.T, chain int) {
	buf, lines := materializeEquivTrace(t, "LL", 23, 32, 12, chain)
	mkAdversary := func(cycles uint64) *trace.Buffer {
		adv := &trace.Buffer{}
		bld := trace.NewBuilder(adv)
		perRound := uint64(64 * (len(lines) + 1))
		rounds := int(2*cycles/perRound) + 2
		for r := 0; r < rounds; r++ {
			for _, line := range lines {
				bld.Store(line, 8, bld.Chain(64), isa.NoReg)
			}
		}
		return adv
	}
	// Size the adversary from a solo SP run of the workload trace.
	solo, _, _ := runEquiv(core.VariantSP, buf, false)

	run := func(ref bool) (multicore.Stats, []cpu.CommitEvent, obs.Snapshot) {
		cfg := multicore.DefaultConfig()
		cfg.Cores = 2
		sim := multicore.New(cfg)
		for i := 0; i < cfg.Cores; i++ {
			sim.Core(i).SetReferenceStepping(ref)
		}
		sim.Core(0).EnableCommitLog()
		buf.Rewind()
		st := sim.Run([]trace.Source{buf, mkAdversary(solo.Cycles)})
		return st, sim.Core(0).CommitLog(), sim.Metrics()
	}
	fastSt, fastLog, fastM := run(false)
	refSt, refLog, refM := run(true)
	if fastSt.Conflicts == 0 || fastSt.Rollbacks == 0 {
		t.Fatalf("adversary produced no conflicts (probes %d, conflicts %d, rollbacks %d)",
			fastSt.Probes, fastSt.Conflicts, fastSt.Rollbacks)
	}
	if !reflect.DeepEqual(fastSt, refSt) {
		t.Errorf("multicore stats diverge:\nfast %+v\nref  %+v", fastSt, refSt)
	}
	if !reflect.DeepEqual(fastLog, refLog) {
		t.Errorf("multicore commit logs diverge (fast %d events, ref %d)", len(fastLog), len(refLog))
	}
	if !reflect.DeepEqual(fastM, refM) {
		t.Errorf("multicore metric snapshots diverge")
	}
}

// TestStepToCallsPerInstruction replays every Table 1 structure behind the
// paper-suite's 1,600-link preamble through StepTo with no horizon, the way
// Run drives the core, and bounds the StepTo calls per committed
// instruction: the chain fast-forward must cover the preamble's whole
// lifetime (filling behind a blocked barrier, catching up after it and
// running past the commit engine), not only its steady state. The counts
// are deterministic, so the bound is exact.
func TestStepToCallsPerInstruction(t *testing.T) {
	const maxCallsPerKInstr = 120
	var calls, committed uint64
	for _, name := range pstruct.Names() {
		buf, _ := materializeEquivTrace(t, name, 41, 64, 24, 1600)
		for _, v := range []core.Variant{core.VariantLogPSf, core.VariantSP} {
			sys := core.New(core.DefaultOptions().For(v), nil)
			buf.Rewind()
			sys.CPU.Start(buf)
			n := uint64(1)
			for sys.CPU.StepTo(math.MaxUint64) {
				n++
			}
			st := sys.CPU.Stats()
			t.Logf("%s/%v: %d StepTo calls for %d committed instructions (%d cycles)", name, v, n, st.Committed, st.Cycles)
			calls += n
			committed += st.Committed
		}
	}
	t.Logf("total: %d StepTo calls for %d committed instructions", calls, committed)
	if calls*1000 > committed*maxCallsPerKInstr {
		t.Errorf("%d StepTo calls for %d committed instructions: over %d per thousand", calls, committed, maxCallsPerKInstr)
	}
}
