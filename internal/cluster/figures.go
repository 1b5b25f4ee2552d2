// Fleet-level figures: sweep offered load across variants, replication
// factors, group-commit sizes and network RTTs, and reduce the results to
// the tables cmd/figures -cluster emits. The headline is the
// quorum-capacity table — the highest offered load each configuration
// sustains while meeting a p99 target with every offered request
// quorum-acknowledged — because a quorum write pays every replica's
// persist barriers plus the network, and the table shows how much of that
// cost speculation and group commit buy back at each R. The replica-rejoin
// curve prices failover: how long a crashed replica takes to rejoin as a
// function of the updates it missed.
package cluster

import (
	"fmt"
	"sort"

	"specpersist/internal/chaos"
	"specpersist/internal/core"
	"specpersist/internal/report"
	"specpersist/internal/service"
	"specpersist/internal/sweep"
)

// SweepConfig parameterizes a fleet sweep: the cross product of Levels,
// Variants, Replicas, Batches, RTTs, RecoverAfters and Rates, each
// simulated from Base. An empty axis keeps Base's value. The write quorum
// follows Base.Quorum (0 = majority of each swept R), and a chaos level
// replaces Base.Chaos with its plan over the run's arrival span.
type SweepConfig struct {
	Base          Config         `json:"base"`
	Levels        []ChaosLevel   `json:"levels,omitempty"`
	Rates         []float64      `json:"rates"`
	Variants      []core.Variant `json:"variants"`
	Replicas      []int          `json:"replicas"`
	Batches       []int          `json:"batches"`
	RTTs          []uint64       `json:"rtts"`
	RecoverAfters []uint64       `json:"recover_afters,omitempty"`
	// Workers bounds sweep parallelism (<= 0: GOMAXPROCS). Results are
	// indexed by grid position, so the worker count never changes output.
	Workers int `json:"-"`
}

// DefaultSweepConfig returns the harness-scale quorum-capacity grid:
// offered load from light to saturating, the strict baseline against SP,
// replication 1 to 3 at majority quorum, group commit off and on, at the
// base RTT.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Base:     DefaultConfig(),
		Rates:    []float64{100, 200, 300, 400},
		Variants: []core.Variant{core.VariantLogPSf, core.VariantSP},
		Replicas: []int{1, 2, 3},
		Batches:  []int{1, 8},
		RTTs:     []uint64{800},
	}
}

// DefaultRTTSweepConfig returns the RTT-sensitivity grid: the R=3
// majority-quorum group-commit fleet swept over short to long round
// trips.
func DefaultRTTSweepConfig() SweepConfig {
	sc := DefaultSweepConfig()
	sc.Replicas = []int{3}
	sc.Batches = []int{8}
	sc.RTTs = []uint64{200, 800, 3200}
	return sc
}

// DefaultRejoinConfig returns the harness-scale rejoin experiment: an
// R=3 W=2 fleet (writes keep flowing during the outage, so the downed
// replica genuinely falls behind) crashed early and restarted after
// successively longer outages, so it misses — and must stream back — a
// different number of updates each time.
func DefaultRejoinConfig() SweepConfig {
	base := DefaultConfig()
	base.Replicas = 3
	base.Quorum = 2
	base.Rate = 200
	base.Requests = 384
	base.CrashAt = 200_000
	base.CrashNode = 1
	return SweepConfig{
		Base:          base,
		Variants:      []core.Variant{core.VariantLogPSf, core.VariantSP},
		RecoverAfters: []uint64{100_000, 400_000, 700_000, 1_000_000},
	}
}

// DefaultChaosSweepConfig returns the chaos-capacity grid: a healthy
// network, 5% drops, and drops plus a partition, across the strict
// baseline and SP at light to moderate load, on DefaultChaosBase (the
// fleet with the client robustness stack).
func DefaultChaosSweepConfig() SweepConfig {
	return SweepConfig{
		Base:     DefaultChaosBase(),
		Rates:    []float64{25, 50, 100},
		Variants: []core.Variant{core.VariantLogPSf, core.VariantSP},
		Levels: []ChaosLevel{
			{Name: "none"},
			{Name: "drops", Drop: 0.05},
			{Name: "drops+partition", Drop: 0.05, Partition: true},
		},
	}
}

// SweepPoint is one grid cell's outcome. Level is empty unless the sweep
// has a Levels axis.
type SweepPoint struct {
	Level        string  `json:"level,omitempty"`
	Rate         float64 `json:"rate"`
	Variant      string  `json:"variant"`
	Replicas     int     `json:"replicas"`
	Quorum       int     `json:"quorum"`
	Batch        int     `json:"batch"`
	RTT          uint64  `json:"rtt"`
	RecoverAfter uint64  `json:"recover_after,omitempty"`
	Result       Result  `json:"result"`
}

// Sweep simulates the full grid on the shared worker pool and returns
// points in deterministic grid order (level, variant, replicas, batch,
// RTT, recover-after, rate), independent of the worker count. A point
// that schedules a recovery fails unless the crashed node rejoined.
func Sweep(sc SweepConfig) ([]SweepPoint, error) {
	type cell struct {
		cfg   Config
		level *ChaosLevel
	}
	grid := []cell{{cfg: sc.Base}}
	grid = sweep.Cross(grid, sc.Levels, func(c *cell, l ChaosLevel) { c.level = &l })
	grid = sweep.Cross(grid, sc.Variants, func(c *cell, v core.Variant) { c.cfg.Variant = v })
	grid = sweep.Cross(grid, sc.Replicas, func(c *cell, r int) { c.cfg.Replicas = r })
	grid = sweep.Cross(grid, sc.Batches, func(c *cell, b int) { c.cfg.BatchMax = b })
	grid = sweep.Cross(grid, sc.RTTs, func(c *cell, rtt uint64) { c.cfg.NetRTT = rtt })
	grid = sweep.Cross(grid, sc.RecoverAfters, func(c *cell, a uint64) { c.cfg.RecoverAfter = a })
	grid = sweep.Cross(grid, sc.Rates, func(c *cell, r float64) { c.cfg.Rate = r })
	points := make([]SweepPoint, len(grid))
	err := sweep.Pool(sc.Workers, len(grid), func(i int) error {
		cfg := grid[i].cfg
		cfg.Timeline = nil
		p := SweepPoint{
			Rate: cfg.Rate, Variant: cfg.Variant.String(), Replicas: cfg.Replicas,
			Batch: cfg.BatchMax, RTT: cfg.NetRTT, RecoverAfter: cfg.RecoverAfter,
		}
		if l := grid[i].level; l != nil {
			p.Level = l.Name
			span := uint64(float64(cfg.Requests) / cfg.Rate * 1e6)
			cfg.Chaos = levelPlan(*l, cfg.Nodes, span)
		}
		res, err := Run(cfg)
		if err == nil && cfg.RecoverAfter > 0 && res.Stats.Rejoins == 0 {
			err = fmt.Errorf("node %d never rejoined", cfg.CrashNode)
		}
		if err != nil {
			return fmt.Errorf("sweep point %s %s R=%d K=%d rtt=%d recover-after=%d rate=%g: %w",
				p.Level, p.Variant, p.Replicas, p.Batch, p.RTT, p.RecoverAfter, p.Rate, err)
		}
		res.Metrics = nil // keep sweep output at table scale
		p.Quorum, p.Result = res.Config.Quorum, res
		points[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// SLO reduces the point to what the SLO rule reads (service.SLOPoint).
func (p SweepPoint) SLO() service.SLOSample {
	st := p.Result.Stats
	return service.SLOSample{Rate: p.Rate, P99: p.Result.P99, Offered: st.Offered, Completed: st.Completed}
}

// CapacityTable reduces a sweep to the quorum-capacity figure: per
// (R, W, K, RTT) cell, the p99 SLO separating the variants most clearly
// and the highest offered load each sustains under it.
func CapacityTable(points []SweepPoint) *report.Table {
	t := &report.Table{
		Title:   "Quorum capacity: max offered load (req/Mcycle) meeting the p99 SLO",
		Columns: []string{"R", "W", "K", "RTT", "p99 SLO", "Log+P+Sf", "SP", "SP gain"},
	}
	type cellKey struct {
		reps, quorum, batch int
		rtt                 uint64
	}
	cells := map[cellKey][]SweepPoint{}
	var order []cellKey
	for _, p := range points {
		k := cellKey{p.Replicas, p.Quorum, p.Batch, p.RTT}
		if _, ok := cells[k]; !ok {
			order = append(order, k)
		}
		cells[k] = append(cells[k], p)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.reps != b.reps {
			return a.reps < b.reps
		}
		if a.batch != b.batch {
			return a.batch < b.batch
		}
		return a.rtt < b.rtt
	})
	for _, k := range order {
		ps := cells[k]
		var sp, base []SweepPoint
		for _, p := range ps {
			switch p.Variant {
			case core.VariantSP.String():
				sp = append(sp, p)
			case core.VariantLogPSf.String():
				base = append(base, p)
			}
		}
		slo := service.ChooseSLO(sp, base)
		b, s := service.MaxSustainedRate(base, slo), service.MaxSustainedRate(sp, slo)
		gain := "-"
		if b > 0 {
			gain = fmt.Sprintf("%+.0f%%", (s/b-1)*100)
		}
		t.AddRow(fmt.Sprint(k.reps), fmt.Sprint(k.quorum), fmt.Sprint(k.batch), fmt.Sprint(k.rtt),
			fmt.Sprint(slo), fmt.Sprintf("%.0f", b), fmt.Sprintf("%.0f", s), gain)
	}
	t.AddNote("latency = arrival at the primary to the W-th durable ack; W = majority of R")
	t.AddNote("a rate counts as sustained only when every offered request was quorum-acknowledged")
	t.AddNote("SLO chosen per row from observed p99 values to maximize the SP vs Log+P+Sf load gap")
	return t
}

// RejoinCurve charts updates streamed during catch-up (x) against the
// recovery-start-to-rejoin time (y), one series per variant.
func RejoinCurve(points []SweepPoint) *report.Curve {
	c := &report.Curve{
		Title:  "Replica rejoin time vs updates replayed",
		XLabel: "updates streamed during catch-up",
		YLabel: "rejoin time (cycles)",
	}
	byVariant := map[string][]report.Point{}
	var order []string
	for _, p := range points {
		if _, ok := byVariant[p.Variant]; !ok {
			order = append(order, p.Variant)
		}
		nd := p.Result.PerNode[p.Result.Config.CrashNode]
		byVariant[p.Variant] = append(byVariant[p.Variant], report.Point{X: float64(nd.CatchupOps), Y: float64(nd.RejoinCycles)})
	}
	for _, v := range order {
		pts := byVariant[v]
		sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
		c.AddSeries(v, pts)
	}
	return c
}

// ChaosLevel is one fault intensity of the chaos-capacity figure: a drop
// fraction and optionally a partition window cutting the last node off
// for the middle fifth of the run.
type ChaosLevel struct {
	Name      string  `json:"name"`
	Drop      float64 `json:"drop"`
	Partition bool    `json:"partition"`
}

// levelPlan assembles one level's chaos plan for a run spanning roughly
// span cycles over nodes servers. A nil return means a kind network.
func levelPlan(l ChaosLevel, nodes int, span uint64) *chaos.Plan {
	if l.Drop == 0 && !l.Partition {
		return nil
	}
	p := &chaos.Plan{Seed: 1, Drop: l.Drop}
	if l.Partition {
		p.Partitions = []chaos.Partition{{From: span / 5, To: 2 * span / 5, Group: []int{nodes - 1}}}
	}
	return p
}

// ChaosCapacityTable reduces a chaos sweep to the tail-latency-under-
// faults figure: per (fault level, rate), each variant's p99 and the
// fraction of offered requests that still completed.
func ChaosCapacityTable(points []SweepPoint) *report.Table {
	t := &report.Table{
		Title:   "Chaos capacity: p99 (cycles) and completion under network faults",
		Columns: []string{"faults", "rate", "Log+P+Sf p99", "done%", "SP p99", "done%", "SP p99 delta"},
	}
	type key struct {
		level string
		rate  float64
	}
	cells := map[key]map[string]SweepPoint{}
	var order []key
	for _, p := range points {
		k := key{p.Level, p.Rate}
		if _, ok := cells[k]; !ok {
			order = append(order, k)
			cells[k] = map[string]SweepPoint{}
		}
		cells[k][p.Variant] = p
	}
	done := func(p SweepPoint, ok bool) string {
		if !ok || p.Result.Stats.Offered == 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(p.Result.Stats.Completed)/float64(p.Result.Stats.Offered))
	}
	p99 := func(p SweepPoint, ok bool) string {
		if !ok {
			return "-"
		}
		return fmt.Sprint(p.Result.P99)
	}
	for _, k := range order {
		base, bok := cells[k][core.VariantLogPSf.String()]
		sp, sok := cells[k][core.VariantSP.String()]
		delta := "-"
		if bok && sok && base.Result.P99 > 0 {
			delta = fmt.Sprintf("%+.0f%%", (float64(sp.Result.P99)/float64(base.Result.P99)-1)*100)
		}
		t.AddRow(k.level, fmt.Sprintf("%.0f", k.rate),
			p99(base, bok), done(base, bok), p99(sp, sok), done(sp, sok), delta)
	}
	t.AddNote("all cells run the full robustness stack: deadlines, retries, hedging, heartbeat failover")
	t.AddNote("drops = 5%% of messages; partition cuts the last node off for the middle fifth of the run")
	t.AddNote("done%% counts quorum-acknowledged requests; the rest timed out, shed or found no quorum")
	return t
}
