// Chaos campaigns: batches of audited runs under generated fault plans,
// executed on the shared worker pool. Trial i's plan, crash schedule and
// workload seed are pure functions of (campaign seed, i), and results are
// collected by trial index, so a campaign is byte-deterministic at any
// worker count. ShrinkChaosPlan delta-minimizes a violating trial's plan
// to a minimal replayable reproducer.
package cluster

import (
	"fmt"

	"specpersist/internal/chaos"
	"specpersist/internal/fault"
	"specpersist/internal/splitmix"
	"specpersist/internal/sweep"
)

// CampaignConfig drives one chaos campaign.
type CampaignConfig struct {
	// Base is the fleet configuration every trial starts from. Trial i
	// overrides Seed, Chaos and the crash schedule deterministically;
	// everything else (variant, robustness knobs, BreakDedup) passes
	// through unchanged.
	Base Config `json:"base"`
	// Trials is the number of audited runs.
	Trials int `json:"trials"`
	// Seed drives plan generation and crash scheduling, independently of
	// Base.Seed so one fleet config can host many campaigns.
	Seed int64 `json:"seed"`
	// Workers bounds the pool; <= 0 means GOMAXPROCS. The worker count
	// never changes the results, only the wall clock — so it is not part
	// of the serialized campaign identity.
	Workers int `json:"-"`
}

// TrialResult is one audited run's distilled outcome. Audit detail is
// kept only for violating trials; clean trials carry the counters and the
// tail latency needed for capacity figures.
type TrialResult struct {
	Trial     int        `json:"trial"`
	Plan      chaos.Plan `json:"plan"`
	CrashAt   uint64     `json:"crash_at,omitempty"`
	CrashNode int        `json:"crash_node,omitempty"`

	Offered    uint64 `json:"offered"`
	Completed  uint64 `json:"completed"`
	TimedOut   uint64 `json:"timed_out,omitempty"`
	Shed       uint64 `json:"shed,omitempty"`
	Dropped    uint64 `json:"dropped,omitempty"`
	Failovers  uint64 `json:"failovers,omitempty"`
	P99        uint64 `json:"p99"`
	Violations int    `json:"violations,omitempty"`
	Audit      *Audit `json:"audit,omitempty"`
}

// CampaignResult aggregates a finished campaign.
type CampaignResult struct {
	Config CampaignConfig `json:"config"`
	// Trials holds every trial, indexed by trial number.
	Trials []TrialResult `json:"trials"`
	// Violations totals invariant breaches across all trials; BadTrials
	// lists the trial numbers that had any.
	Violations int   `json:"violations"`
	BadTrials  []int `json:"bad_trials,omitempty"`
	// Completed / Offered pool the request accounting fleet-wide.
	Offered   uint64 `json:"offered"`
	Completed uint64 `json:"completed"`
	// P99Max is the worst per-trial p99 (cycles) across the campaign.
	P99Max uint64 `json:"p99_max"`
}

// DefaultChaosBase is a 3-node, 2-replica fleet with the full client
// robustness stack enabled — the baseline every chaos campaign and test
// perturbs.
func DefaultChaosBase() Config {
	cfg := DefaultConfig()
	cfg.Nodes = 3
	cfg.Replicas = 2
	cfg.Requests = 220
	cfg.Rate = 40
	cfg.ReqDeadline = 120_000
	cfg.RetryMax = 4
	cfg.HedgeQuantile = 0.95
	cfg.ShedHighWater = 48
	cfg.HeartbeatEvery = 4_000
	cfg.LeaseCycles = 16_000
	return cfg
}

// TrialConfig derives trial i's full fleet configuration: a generated
// chaos plan over the run's expected span, a crash + recovery on roughly
// a quarter of trials, and a per-trial workload seed. Pure function of
// (cc, i).
func TrialConfig(cc CampaignConfig, i int) Config {
	cfg := cc.Base.withDefaults()
	h := func(k uint64) uint64 {
		return splitmix.Mix(uint64(cc.Seed)*0x9e3779b97f4a7c15 + uint64(i)*64 + k)
	}
	// Expected arrival span in cycles (Rate is requests per Mcycle).
	span := uint64(float64(cfg.Requests) / cfg.Rate * 1e6)
	if span < 1000 {
		span = 1000 // degenerate rates still need nonzero crash windows
	}
	plan := chaos.GenPlan(int64(h(1)), cfg.Nodes, span)
	cfg.Chaos = &plan
	cfg.Seed = cc.Base.Seed + int64(h(2)%(1<<32)) + 1
	if h(3)%4 == 0 {
		cfg.CrashAt = span/5 + h(4)%(span/2)
		cfg.CrashNode = int(h(5) % uint64(cfg.Nodes))
		cfg.RecoverAfter = span/8 + h(6)%(span/4)
	} else {
		cfg.CrashAt, cfg.CrashNode, cfg.RecoverAfter = 0, 0, 0
	}
	return cfg
}

// Campaign runs cc.Trials audited runs on the worker pool and aggregates
// them. Engine errors (validation, scheduler bugs) abort the campaign;
// invariant breaches do not — they land in the per-trial audits and the
// campaign totals, ready for ShrinkChaosPlan.
func Campaign(cc CampaignConfig) (CampaignResult, error) {
	if cc.Trials <= 0 {
		return CampaignResult{}, fmt.Errorf("cluster: campaign needs at least 1 trial, got %d", cc.Trials)
	}
	trials := make([]TrialResult, cc.Trials)
	err := sweep.Pool(cc.Workers, cc.Trials, func(i int) error {
		cfg := TrialConfig(cc, i)
		r, err := RunAudited(cfg)
		if err != nil {
			return fmt.Errorf("cluster: campaign trial %d: %w", i, err)
		}
		tr := TrialResult{
			Trial:     i,
			Plan:      *cfg.Chaos,
			CrashAt:   cfg.CrashAt,
			CrashNode: cfg.CrashNode,
			Offered:   r.Stats.Offered,
			Completed: r.Stats.Completed,
			TimedOut:  r.Stats.TimedOut,
			Shed:      r.Stats.Shed,
			Dropped:   r.Stats.Dropped,
			Failovers: r.Stats.Failovers,
			P99:       r.P99,
		}
		if r.Audit != nil && !r.Audit.Clean() {
			tr.Violations = r.Audit.Total
			tr.Audit = r.Audit
		}
		trials[i] = tr
		return nil
	})
	if err != nil {
		return CampaignResult{}, err
	}
	out := CampaignResult{Config: cc, Trials: trials}
	for i := range trials {
		t := &trials[i]
		out.Offered += t.Offered
		out.Completed += t.Completed
		out.Violations += t.Violations
		if t.Violations > 0 {
			out.BadTrials = append(out.BadTrials, i)
		}
		if t.P99 > out.P99Max {
			out.P99Max = t.P99
		}
	}
	return out, nil
}

// ShrinkChaosPlan delta-minimizes cfg.Chaos while the audited run keeps
// violating: fate fractions are zeroed or halved, partition and gray
// windows are removed through fault.DDMinList, and the crash schedule is
// dropped if the violation survives without it. budget bounds replays
// (<= 0 means fault.DefaultShrinkBudget). Returns the minimized config
// (normalized plan inside) and the replays spent. If the original config
// does not reproduce a violation it is returned unchanged.
func ShrinkChaosPlan(cfg Config, budget int) (Config, int) {
	if budget <= 0 {
		budget = fault.DefaultShrinkBudget
	}
	steps := 0
	fails := func(q Config) bool {
		if steps >= budget {
			return false
		}
		steps++
		r, err := RunAudited(q)
		return err == nil && r.Audit != nil && !r.Audit.Clean()
	}
	if cfg.Chaos == nil {
		cfg.Chaos = &chaos.Plan{}
	}
	p := *cfg.Chaos
	cur := cfg
	cur.Chaos = &p
	if !fails(cur) {
		return cfg, steps
	}
	with := func(q chaos.Plan) Config {
		c := cur
		qq := q.Normalize() // keep candidates valid (e.g. DelayMult sans Delay)
		c.Chaos = &qq
		return c
	}
	for steps < budget {
		improved := false

		// Drop the crash schedule entirely.
		if cur.CrashAt > 0 {
			q := cur
			q.CrashAt, q.CrashNode, q.RecoverAfter = 0, 0, 0
			if fails(q) {
				cur = q
				improved = true
			}
		}

		// Fate fractions toward zero: try zero first, then half.
		for _, f := range []func(*chaos.Plan) *float64{
			func(q *chaos.Plan) *float64 { return &q.Drop },
			func(q *chaos.Plan) *float64 { return &q.Dup },
			func(q *chaos.Plan) *float64 { return &q.Delay },
			func(q *chaos.Plan) *float64 { return &q.Reorder },
		} {
			cp := *cur.Chaos
			cv := *f(&cp)
			if cv == 0 {
				continue
			}
			for _, try := range []float64{0, cv / 2} {
				q := *cur.Chaos
				*f(&q) = try
				if fails(with(q)) {
					cur = with(q)
					improved = true
					break
				}
			}
		}

		// Window lists: ddmin partitions, then grays.
		parts, _ := fault.DDMinList(cur.Chaos.Partitions, func(cand []chaos.Partition) bool {
			q := *cur.Chaos
			q.Partitions = cand
			return fails(with(q))
		}, 1<<30)
		if len(parts) < len(cur.Chaos.Partitions) {
			q := *cur.Chaos
			q.Partitions = parts
			cur = with(q)
			improved = true
		}
		grays, _ := fault.DDMinList(cur.Chaos.Grays, func(cand []chaos.Gray) bool {
			q := *cur.Chaos
			q.Grays = cand
			return fails(with(q))
		}, 1<<30)
		if len(grays) < len(cur.Chaos.Grays) {
			q := *cur.Chaos
			q.Grays = grays
			cur = with(q)
			improved = true
		}

		if !improved {
			break
		}
	}
	norm := cur.Chaos.Normalize()
	cur.Chaos = &norm
	return cur, steps
}
