package fault

import (
	"fmt"
	"math/rand"
	"reflect"

	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/multicore"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
)

// SPDifferential verifies the §4.2.2 rollback contract: running the same
// Log+P+Sf trace on the SP hardware, forcing at least one speculative-epoch
// rollback via an external coherence probe, must leave the architectural
// and durable effect stream equal to the plain (non-speculative) machine's.
//
// Effects are compared as commit logs — every store/flush reaching the
// cache and every pcommit reaching the controller — canonicalized into
// pcommit-delimited segments with per-line orderings, because the two
// machines may legally interleave commits to different lines within one
// persist epoch (store-buffer drain vs. SSB drain order).
//
// Returns nil when the streams match; an error describing the divergence
// (or the failure to trigger a rollback) otherwise.
func SPDifferential(structure string, seed int64, warmup, ops int) error {
	buf, candidates := materializeTrace(structure, seed, warmup, ops)

	baseSys := core.New(core.DefaultOptions().For(core.VariantLogPSf), nil)
	baseSys.CPU.EnableCommitLog()
	buf.Rewind()
	baseSys.Run(buf)
	baseLog := baseSys.CPU.CommitLog()

	spSys := core.New(core.DefaultOptions().For(core.VariantSP), nil)
	spSys.CPU.EnableCommitLog()
	rolled := false
	spSys.CPU.OnCycle(func(c *cpu.CPU) {
		// Fire one coherence probe as early in speculation as possible:
		// before the commit engine has drained anything, so the rollback
		// discards only never-committed state and the re-executed stream
		// commits each effect exactly once.
		if rolled {
			return
		}
		for _, a := range candidates {
			if c.CoherenceProbe(a) {
				rolled = true
				return
			}
		}
	})
	buf.Rewind()
	spStats := spSys.Run(buf)
	if spStats.Rollbacks == 0 {
		return fmt.Errorf("fault: SP differential %s: no rollback was triggered (%d speculation entries)",
			structure, spStats.SpecEntries)
	}
	if err := compareCommitLogs(baseLog, spSys.CPU.CommitLog()); err != nil {
		return fmt.Errorf("fault: SP differential %s (after %d rollbacks): %w",
			structure, spStats.Rollbacks, err)
	}
	return nil
}

// materializeTrace functionally executes the structure's operation stream
// once and returns the traced measured phase plus the distinct store lines
// it touches (the candidate conflict surface).
func materializeTrace(structure string, seed int64, warmup, ops int) (*trace.Buffer, []uint64) {
	p := DefaultPlan(structure, core.VariantLogPSf, seed)
	if warmup > 0 {
		p.Warmup = warmup
	}
	if ops <= 0 {
		ops = 4
	}
	buf := &trace.Buffer{}
	env := exec.New()
	env.Level = exec.LevelFull
	mgr := txn.NewManager(env, p.LogCapacity)
	s := pstruct.Build(structure, env, mgr, p.config())
	rng := rand.New(rand.NewSource(p.Seed))
	for i := 0; i < p.Warmup; i++ {
		s.Apply(uint64(rng.Intn(p.Keyspace)))
	}
	env.M.PersistAll()
	env.SetBuilder(trace.NewBuilder(buf))
	for i := 0; i < ops; i++ {
		s.Apply(uint64(rng.Intn(p.Keyspace)))
	}
	env.SetBuilder(nil)

	// Candidate probe lines: anything the trace stores to can collide with
	// an external coherence request while buffered speculatively.
	var candidates []uint64
	seen := make(map[uint64]bool)
	for _, in := range buf.Instrs() {
		if in.Op == isa.Store {
			if l := mem.LineAddr(in.Addr); !seen[l] {
				seen[l] = true
				candidates = append(candidates, l)
			}
		}
	}
	return buf, candidates
}

// SPDifferentialReal is SPDifferential with the probes produced by the
// multi-core conflict engine instead of the test scaffold's forced hook:
// a second core runs an adversary trace that stores to the workload's own
// lines, and the directory converts those committed stores into real
// coherence probes against the workload core's BLT — including the NACK
// path when a conflicting epoch is already mid-commit. The workload core's
// effect stream must still match the plain machine's.
func SPDifferentialReal(structure string, seed int64, warmup, ops int) error {
	buf, candidates := materializeTrace(structure, seed, warmup, ops)

	baseSys := core.New(core.DefaultOptions().For(core.VariantLogPSf), nil)
	baseSys.CPU.EnableCommitLog()
	buf.Rewind()
	baseStats := baseSys.Run(buf)
	baseLog := baseSys.CPU.CommitLog()

	// Adversary stream: repeated store sweeps over the workload's lines,
	// paced by short ALU chains so probes spread across the whole run. It
	// has no fences, so the adversary core never speculates — its stores
	// drain through the normal store buffer and probe as they commit.
	// Sized from the baseline's cycle count (the SP run is shorter) so
	// probe traffic covers every speculation window of the workload core.
	adv := &trace.Buffer{}
	bld := trace.NewBuilder(adv)
	perRound := uint64(64 * (len(candidates) + 1))
	rounds := int(2*baseStats.Cycles/perRound) + 2
	for r := 0; r < rounds; r++ {
		for _, line := range candidates {
			bld.Store(line, 8, bld.Chain(64), isa.NoReg)
		}
	}

	cfg := multicore.DefaultConfig()
	cfg.Cores = 2
	sim := multicore.New(cfg)
	sim.Core(0).EnableCommitLog()
	buf.Rewind()
	stats := sim.Run([]trace.Source{buf, adv})
	if stats.Rollbacks == 0 {
		return fmt.Errorf("fault: SP real-probe differential %s: no rollback was triggered (%d probes, %d conflicts)",
			structure, stats.Probes, stats.Conflicts)
	}
	if err := compareCommitLogs(baseLog, sim.Core(0).CommitLog()); err != nil {
		return fmt.Errorf("fault: SP real-probe differential %s (after %d rollbacks, %d deferred): %w",
			structure, stats.Rollbacks, stats.Deferred, err)
	}
	return nil
}

// segment is one persist epoch's effects: per cache line, the ordered ops
// applied to it (stores and flushes; the delimiting pcommits are implicit).
type segment map[uint64][]isa.Op

// canonicalSegments splits a commit log on pcommits and canonicalizes each
// piece to per-line order, the strongest ordering both machines guarantee.
func canonicalSegments(events []cpu.CommitEvent) []segment {
	segs := []segment{{}}
	for _, e := range events {
		if e.Op == isa.Pcommit {
			segs = append(segs, segment{})
			continue
		}
		cur := segs[len(segs)-1]
		line := mem.LineAddr(e.Addr)
		cur[line] = append(cur[line], e.Op)
	}
	return segs
}

// compareCommitLogs checks canonical equality of two commit logs: split on
// pcommits into persist-epoch segments, then compare the per-line op order
// inside each segment — the strongest ordering both a plain store-buffer
// machine and an SP SSB machine guarantee for a flush-fence-disciplined
// workload. (internal/litmus uses its own comparison: on arbitrary litmus
// programs an unflushed store's drain may legally land in a different
// segment than its program position, which this segment-membership check
// would flag.)
func compareCommitLogs(base, sp []cpu.CommitEvent) error {
	a, b := canonicalSegments(base), canonicalSegments(sp)
	if len(a) != len(b) {
		return fmt.Errorf("pcommit segment counts differ: base %d vs sp %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Errorf("segment %d/%d differs: base has %d lines, sp has %d lines",
				i, len(a), len(a[i]), len(b[i]))
		}
	}
	return nil
}
