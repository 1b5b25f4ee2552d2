package fault

import (
	"fmt"
	"sync/atomic"

	"specpersist/internal/core"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/sweep"
)

// Engine runs fault-injection campaigns on a worker pool and publishes the
// fault.* observability counters. The zero value is usable: serial-ish
// defaults, strict crashes only, no shrinking limits exceeded.
type Engine struct {
	// Workers is the pool size; <= 0 means one worker per CPU.
	Workers int
	// Samples is the number of randomized fate sets tried per crash point
	// in addition to the strict crash (sample 0). Each sampled trial
	// records its fates, so it is exactly as replayable as a strict one.
	Samples int
	// Torn lets sampled fates tear lines at 8-byte chunk granularity.
	Torn bool
	// Recrash expands every trial whose recovery performed work into one
	// child trial per persistence event inside recovery, re-crashing there.
	Recrash bool
	// Shrink minimizes failing plans before reporting them.
	Shrink bool
	// MaxViolations caps how many violations per structure are kept (and
	// shrunk) in the report; <= 0 means 3. Campaign totals always count
	// every violation.
	MaxViolations int
	// ShrinkBudget caps replays per shrink; <= 0 means DefaultShrinkBudget.
	ShrinkBudget int

	trials      atomic.Uint64
	crashes     atomic.Uint64
	torn        atomic.Uint64
	violations  atomic.Uint64
	shrinkSteps atomic.Uint64
}

// Register publishes the engine's counters into the registry under the
// "fault." key space. Safe to call once per registry.
func (e *Engine) Register(r *obs.Registry) {
	r.RegisterFunc("fault.trials", e.trials.Load)
	r.RegisterFunc("fault.crashes", e.crashes.Load)
	r.RegisterFunc("fault.torn", e.torn.Load)
	r.RegisterFunc("fault.violations", e.violations.Load)
	r.RegisterFunc("fault.shrink.steps", e.shrinkSteps.Load)
}

// Campaign parameterizes one run over a set of structures.
type Campaign struct {
	// Structures to test; nil means every pstruct.Names() structure.
	Structures []string
	Variant    core.Variant
	Seed       int64
	// Warmup operations populating each structure before trials; <= 0
	// means the DefaultPlan value.
	Warmup int
	// Ops is the number of operations probed per structure. In exhaustive
	// mode every persistence event of each probed operation is a crash
	// point; <= 0 means 3.
	Ops int
	// Exhaustive enumerates every crash point (counting pass first).
	// Otherwise Trials random crash points are sampled.
	Exhaustive bool
	// Trials is the randomized-mode trial count per structure; <= 0 means
	// 200.
	Trials int
	// MaxCrashIndex bounds randomized-mode crash indexes; <= 0 means 200.
	MaxCrashIndex int
	// VstoreUnsafeFlip propagates the versioned store's negative-control
	// commit protocol into every plan (structure "VT" only).
	VstoreUnsafeFlip bool
}

// Report is a campaign's machine-readable summary.
type Report struct {
	Variant    string            `json:"variant"`
	Exhaustive bool              `json:"exhaustive"`
	Torn       bool              `json:"torn"`
	Recrash    bool              `json:"recrash"`
	Seed       int64             `json:"seed"`
	Trials     int               `json:"trials"`
	Crashes    int               `json:"crashes"`
	Violations int               `json:"violations"`
	Structures []StructureReport `json:"structures"`
}

// StructureReport summarizes one structure's trials.
type StructureReport struct {
	Structure     string            `json:"structure"`
	Trials        int               `json:"trials"`
	Crashes       int               `json:"crashes"`
	RecrashTrials int               `json:"recrash_trials"`
	TornLines     uint64            `json:"torn_lines"`
	Violations    int               `json:"violations"`
	Details       []ViolationDetail `json:"details,omitempty"`
}

// ViolationDetail carries one failing plan, optionally minimized.
type ViolationDetail struct {
	Plan      Plan   `json:"plan"`
	Violation string `json:"violation"`
	// Shrunk is the delta-debugged minimal plan (nil if shrinking is off).
	Shrunk *Plan `json:"shrunk,omitempty"`
	// ShrunkViolation is the minimized plan's failure message.
	ShrunkViolation string `json:"shrunk_violation,omitempty"`
	ShrinkSteps     int    `json:"shrink_steps,omitempty"`
	// Deterministic reports that replaying the (minimized, if shrinking is
	// on) plan twice reproduced the identical violation both times.
	Deterministic bool `json:"deterministic"`
}

func (e *Engine) maxViolations() int {
	if e.MaxViolations <= 0 {
		return 3
	}
	return e.MaxViolations
}

// trialResult pairs a plan (with recorded fates) and its outcome.
type trialResult struct {
	plan Plan
	out  Outcome
}

// fateSeed derives the RNG seed of one sampled fate set from the trial's
// coordinates, so campaigns are deterministic under any worker count.
func fateSeed(seed int64, op, ci, sample int) int64 {
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range []uint64{uint64(op), uint64(ci), uint64(sample), 0x7f4a} {
		x ^= (v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2))
		x *= 0xbf58476d1ce4e5b9
	}
	return int64(x)
}

// runTrials executes plans on the pool, each on a fork of the prefix of
// its probed operation, and updates the counters; sampled[i] != 0 means
// plans[i] draws fresh random fates (seeded by sampled[i]) instead of
// replaying plan.Fates, and the recorded fates are folded back into the
// returned plan.
func (e *Engine) runTrials(pres []prefix, plans []Plan, sampled []int64) []trialResult {
	out := make([]trialResult, len(plans))
	// The trial function never fails, so neither does the pool.
	_ = sweep.Pool(e.Workers, len(plans), func(i int) error {
		p := plans[i]
		var o Outcome
		if sampled != nil && sampled[i] != 0 {
			var rec []LineFate
			o = runTrial(&pres[p.Op], p, samplingFates(sampled[i], e.Torn, &rec))
			p.Fates = rec
		} else {
			o = runTrial(&pres[p.Op], p, replayFates(p.Fates))
		}
		e.trials.Add(1)
		if o.Crashed {
			e.crashes.Add(1)
		}
		e.torn.Add(o.TornLines)
		if o.Failed() {
			e.violations.Add(1)
		}
		out[i] = trialResult{plan: p, out: o}
		return nil
	})
	return out
}

// Run executes the campaign and returns its report. Results are
// deterministic for a given campaign and engine configuration, independent
// of the worker count.
func (e *Engine) Run(c Campaign) (Report, error) {
	if !c.Variant.Transactional() {
		return Report{}, fmt.Errorf("fault: variant %s has no recovery to test", c.Variant)
	}
	if e.Samples < 0 {
		return Report{}, fmt.Errorf("fault: samples must be non-negative, got %d", e.Samples)
	}
	structures := c.Structures
	if len(structures) == 0 {
		structures = pstruct.Names()
	}
	rep := Report{
		Variant:    c.Variant.String(),
		Exhaustive: c.Exhaustive,
		Torn:       e.Torn,
		Recrash:    e.Recrash,
		Seed:       c.Seed,
	}
	for _, name := range structures {
		sr, err := e.runStructure(name, c)
		if err != nil {
			return Report{}, fmt.Errorf("fault: %s: %w", name, err)
		}
		rep.Structures = append(rep.Structures, sr)
		rep.Trials += sr.Trials
		rep.Crashes += sr.Crashes
		rep.Violations += sr.Violations
	}
	return rep, nil
}

// randomOps is how many operations randomized campaigns probe (trial t
// probes operation t % randomOps).
const randomOps = 4

// basePlan returns the plan every trial of the campaign on one structure
// starts from, and how many operations the campaign probes.
func (c Campaign) basePlan(name string) (Plan, int) {
	base := DefaultPlan(name, c.Variant, c.Seed)
	if c.Warmup > 0 {
		base.Warmup = c.Warmup
	}
	base.VstoreUnsafeFlip = c.VstoreUnsafeFlip && name == "VT"
	if !c.Exhaustive {
		return base, randomOps
	}
	if c.Ops <= 0 {
		return base, 3
	}
	return base, c.Ops
}

// trialPlans lists one structure's primary trials. Exhaustive campaigns
// crash before every counted persistence event of every probed operation,
// once strictly and Samples times with sampled fates; randomized ones draw
// Trials crash points. sampled[i] != 0 seeds plans[i]'s sampled fates.
func (e *Engine) trialPlans(base Plan, c Campaign, counts []int) (plans []Plan, sampled []int64) {
	if c.Exhaustive {
		for op, events := range counts {
			for ci := 0; ci < events; ci++ {
				for s := 0; s <= e.Samples; s++ {
					p := base
					p.Op, p.CrashIndex = op, ci
					plans = append(plans, p)
					if s == 0 {
						sampled = append(sampled, 0) // strict crash
					} else {
						sampled = append(sampled, fateSeed(c.Seed, op, ci, s))
					}
				}
			}
		}
		return plans, sampled
	}
	trials := c.Trials
	if trials <= 0 {
		trials = 200
	}
	maxCI := c.MaxCrashIndex
	if maxCI <= 0 {
		maxCI = 200
	}
	for t := 0; t < trials; t++ {
		p := base
		p.Op = t % randomOps
		// Derive the crash index from the fate seed so randomized
		// campaigns replay without carrying an RNG around.
		p.CrashIndex = int(uint64(fateSeed(c.Seed, p.Op, t, 0)) % uint64(maxCI))
		plans = append(plans, p)
		sampled = append(sampled, fateSeed(c.Seed, p.Op, t, 1))
	}
	return plans, sampled
}

// recrashPlans is the crash-during-recovery expansion: every trial whose
// recovery did work spawns one child per recovery persistence event. The
// child replays the parent's recorded primary fates, so the pre-recovery
// durable image is identical; only the second crash point varies.
func recrashPlans(results []trialResult) []Plan {
	var children []Plan
	for _, r := range results {
		if !r.out.Crashed || r.out.RecoveryEvents == 0 {
			continue
		}
		for rc := 0; rc < r.out.RecoveryEvents; rc++ {
			p := r.plan
			p.RecoveryCrash = rc
			children = append(children, p)
		}
	}
	return children
}

// runStructure runs one structure's campaign. Its prefixes — one per
// probed operation, built by the counting pass — live only for this call,
// so no campaign reuses another's work.
func (e *Engine) runStructure(name string, c Campaign) (StructureReport, error) {
	base, nops := c.basePlan(name)
	pres, counts, err := prefixes(base, 0, nops)
	if err != nil {
		return StructureReport{}, err
	}
	plans, sampled := e.trialPlans(base, c, counts)
	results := e.runTrials(pres, plans, sampled)

	sr := StructureReport{Structure: name, Trials: len(results)}
	for _, r := range results {
		if r.out.Crashed {
			sr.Crashes++
		}
		sr.TornLines += r.out.TornLines
	}

	if e.Recrash {
		childResults := e.runTrials(pres, recrashPlans(results), nil)
		sr.RecrashTrials = len(childResults)
		sr.Trials += len(childResults)
		for _, r := range childResults {
			if r.out.Crashed {
				sr.Crashes++
			}
			sr.TornLines += r.out.TornLines
		}
		results = append(results, childResults...)
	}

	// Collect violations in plan order (deterministic), shrink the first
	// few, and verify the reproducer replays.
	for _, r := range results {
		if !r.out.Failed() {
			continue
		}
		sr.Violations++
		if len(sr.Details) >= e.maxViolations() {
			continue
		}
		d := ViolationDetail{Plan: r.plan, Violation: r.out.Violation}
		check := r.plan
		if e.Shrink {
			shrunk, out, steps := e.ShrinkPlan(r.plan)
			d.Shrunk = &shrunk
			d.ShrunkViolation = out.Violation
			d.ShrinkSteps = steps
			check = shrunk
		}
		d.Deterministic = replaysDeterministically(check)
		sr.Details = append(sr.Details, d)
	}
	return sr, nil
}

// replaysDeterministically replays a plan twice and reports whether both
// runs failed with the identical violation.
func replaysDeterministically(p Plan) bool {
	a, err1 := Run(p)
	b, err2 := Run(p)
	return err1 == nil && err2 == nil && a.Failed() && a.Violation == b.Violation
}
