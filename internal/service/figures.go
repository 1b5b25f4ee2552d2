// Throughput–latency figures: sweep offered load across structures,
// variants, group commit sizes and shard counts, and reduce the results
// to the tables and charts cmd/figures -latency and -vstore emit. The
// headline comparison is the SLO table: the highest offered load each
// configuration sustains while meeting a fixed p99 target — the form in
// which a barrier's latency cost actually surfaces for a storage server.
package service

import (
	"fmt"
	"sort"

	"specpersist/internal/core"
	"specpersist/internal/report"
	"specpersist/internal/sweep"
)

// SweepConfig parameterizes a latency sweep: the cross product of
// Structures, Variants, Batches, Cores and Rates, each simulated from the
// Base template. An empty axis keeps Base's value.
type SweepConfig struct {
	Base       Config         `json:"base"`
	Structures []string       `json:"structures,omitempty"`
	Rates      []float64      `json:"rates"`
	Variants   []core.Variant `json:"variants"`
	Batches    []int          `json:"batches"`
	Cores      []int          `json:"cores"`
	// Workers bounds sweep parallelism (<= 0: GOMAXPROCS). Results are
	// indexed by grid position, so the worker count never changes output.
	Workers int `json:"-"`
}

// DefaultSweepConfig returns the harness-scale figure: offered load from
// light to saturating, the three durable variants, group commit off and
// on, single shard.
func DefaultSweepConfig() SweepConfig {
	base := DefaultConfig()
	return SweepConfig{
		Base:     base,
		Rates:    []float64{100, 300, 500, 700, 900},
		Variants: []core.Variant{core.VariantLogP, core.VariantLogPSf, core.VariantSP},
		Batches:  []int{1, 8},
		Cores:    []int{1},
	}
}

// SweepPoint is one grid cell's outcome.
type SweepPoint struct {
	Structure string  `json:"structure"`
	Rate      float64 `json:"rate"`
	Variant   string  `json:"variant"`
	Batch     int     `json:"batch"`
	Cores     int     `json:"cores"`
	Result    Result  `json:"result"`
}

// LatencySweep simulates the full grid on the shared worker pool and
// returns points in deterministic grid order (structure, variant, batch,
// cores, rate), independent of the worker count.
func LatencySweep(sc SweepConfig) ([]SweepPoint, error) {
	grid := []Config{sc.Base}
	grid = sweep.Cross(grid, sc.Structures, func(c *Config, s string) { c.Structure = s })
	grid = sweep.Cross(grid, sc.Variants, func(c *Config, v core.Variant) { c.Variant = v })
	grid = sweep.Cross(grid, sc.Batches, func(c *Config, b int) { c.BatchMax = b })
	grid = sweep.Cross(grid, sc.Cores, func(c *Config, n int) { c.Cores = n })
	grid = sweep.Cross(grid, sc.Rates, func(c *Config, r float64) { c.Rate = r })
	points := make([]SweepPoint, len(grid))
	err := sweep.Pool(sc.Workers, len(grid), func(i int) error {
		cfg := grid[i]
		cfg.Timeline = nil // timelines are not meaningful across a grid
		res, err := Run(cfg)
		if err != nil {
			return fmt.Errorf("sweep point %s %s rate=%g batch=%d cores=%d: %w",
				cfg.Structure, cfg.Variant, cfg.Rate, cfg.BatchMax, cfg.Cores, err)
		}
		res.Metrics = nil // keep sweep output at table scale
		points[i] = SweepPoint{
			Structure: cfg.Structure, Rate: cfg.Rate, Variant: cfg.Variant.String(),
			Batch: cfg.BatchMax, Cores: cfg.Cores, Result: res,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return points, nil
}

// LatencyTable renders the sweep as the paper-style figure table: one row
// per grid cell with offered load, measured goodput, tail percentiles and
// the group-commit amortization evidence (pcommits per completed request).
func LatencyTable(points []SweepPoint) *report.Table {
	t := &report.Table{
		Title: "Open-loop serving: offered load vs durable-commit latency (cycles)",
		Columns: []string{"variant", "K", "cores", "offered(req/Mc)", "goodput(req/Mc)",
			"p50", "p95", "p99", "p99.9", "mean", "drops", "pcommit/req"},
	}
	for _, p := range points {
		r := p.Result
		perReq := 0.0
		if r.Stats.Completed > 0 {
			perReq = float64(r.Stats.Pcommits) / float64(r.Stats.Completed)
		}
		t.AddRow(p.Variant, fmt.Sprint(p.Batch), fmt.Sprint(p.Cores), fmt.Sprintf("%.0f", p.Rate),
			fmt.Sprintf("%.1f", r.Throughput),
			fmt.Sprint(r.P50), fmt.Sprint(r.P95), fmt.Sprint(r.P99), fmt.Sprint(r.P999),
			fmt.Sprintf("%.0f", r.Mean), fmt.Sprint(r.Stats.Dropped), fmt.Sprintf("%.2f", perReq))
	}
	t.AddNote("latency = arrival to durable commit, in cycles; drops = arrivals shed by the bounded shard FIFO")
	return t
}

// SLO reduces the point to what the SLO rule reads (SLOPoint).
func (p SweepPoint) SLO() SLOSample {
	st := p.Result.Stats
	return SLOSample{Rate: p.Rate, P99: p.Result.P99, Offered: st.Offered, Completed: st.Completed}
}

// SLOPoint is one point of a capacity sweep, in either serving layer.
type SLOPoint interface{ SLO() SLOSample }

// SLOSample is a capacity point's offered rate, observed p99 and request
// outcome.
type SLOSample struct {
	Rate               float64
	P99                uint64
	Offered, Completed uint64
}

// Sustains is both serving layers' one SLO rule: every offered request
// completed (a request dropped, shed, timed out or refused would
// otherwise flatter the tail) and the 99th percentile is within target.
func (s SLOSample) Sustains(slo uint64) bool { return s.Completed == s.Offered && s.P99 <= slo }

// MaxSustainedRate returns the highest offered rate among points (already
// filtered to one configuration) that meets the SLO, or 0 if none does.
func MaxSustainedRate[P SLOPoint](points []P, slo uint64) float64 {
	best := 0.0
	for _, p := range points {
		if s := p.SLO(); s.Sustains(slo) && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}

// SLOTable reduces a sweep to the headline figure: for each (K, cores)
// cell, the p99 SLO that separates the variants most clearly and the
// highest offered load each variant sustains under it. The SLO is chosen
// deterministically from the observed p99 values — the one maximizing the
// load gap between SP and Log+P+Sf (smallest such SLO on ties).
func SLOTable(points []SweepPoint) *report.Table {
	t := &report.Table{
		Title:   "p99 SLO capacity: max offered load (req/Mcycle) meeting the SLO",
		Columns: []string{"K", "cores", "p99 SLO", "Log+P", "Log+P+Sf", "SP", "SP vs Log+P+Sf"},
	}
	type cellKey struct{ batch, cores int }
	cells := map[cellKey][]SweepPoint{}
	var order []cellKey
	for _, p := range points {
		k := cellKey{p.Batch, p.Cores}
		if _, ok := cells[k]; !ok {
			order = append(order, k)
		}
		cells[k] = append(cells[k], p)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].batch != order[j].batch {
			return order[i].batch < order[j].batch
		}
		return order[i].cores < order[j].cores
	})
	for _, k := range order {
		ps := cells[k]
		byVariant := func(name string) []SweepPoint {
			var out []SweepPoint
			for _, p := range ps {
				if p.Variant == name {
					out = append(out, p)
				}
			}
			return out
		}
		sp := byVariant(core.VariantSP.String())
		base := byVariant(core.VariantLogPSf.String())
		logp := byVariant(core.VariantLogP.String())
		slo := ChooseSLO(sp, base)
		row := []string{fmt.Sprint(k.batch), fmt.Sprint(k.cores), fmt.Sprint(slo)}
		for _, vps := range [][]SweepPoint{logp, base, sp} {
			if len(vps) == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%.0f", MaxSustainedRate(vps, slo)))
		}
		gain := "-"
		if b, s := MaxSustainedRate(base, slo), MaxSustainedRate(sp, slo); b > 0 {
			gain = fmt.Sprintf("%+.0f%%", (s/b-1)*100)
		}
		row = append(row, gain)
		t.AddRow(row...)
	}
	t.AddNote("SLO chosen per row from observed p99 values to maximize the SP vs Log+P+Sf load gap")
	t.AddNote("a rate counts as sustained only with zero queue drops")
	return t
}

// ChooseSLO picks the p99 target that maximizes the sustained-load gap
// between the SP points and the baseline points, scanning the observed
// p99 values of both sets as candidates (smallest winning SLO on ties).
// With either set empty it falls back to the other's median p99.
func ChooseSLO[P SLOPoint](sp, base []P) uint64 {
	var candidates []uint64
	for _, p := range append(append([]P{}, sp...), base...) {
		candidates = append(candidates, p.SLO().P99)
	}
	if len(candidates) == 0 {
		return 0
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	if len(sp) == 0 || len(base) == 0 {
		return candidates[len(candidates)/2]
	}
	bestSLO, bestGap := candidates[0], -1.0
	for _, slo := range candidates {
		gap := MaxSustainedRate(sp, slo) - MaxSustainedRate(base, slo)
		if gap > bestGap {
			bestGap, bestSLO = gap, slo
		}
	}
	return bestSLO
}

// ThroughputLatencyCurve charts offered load (x) against p99 latency (y,
// log scale), one series per variant, restricted to one (K, cores) cell.
func ThroughputLatencyCurve(points []SweepPoint, batch, cores int) *report.Curve {
	c := &report.Curve{
		Title:  fmt.Sprintf("p99 latency vs offered load (K=%d, cores=%d)", batch, cores),
		XLabel: "offered load (req/Mcycle)",
		YLabel: "p99 (cycles)",
		LogY:   true,
	}
	byVariant := map[string][]report.Point{}
	var order []string
	for _, p := range points {
		if p.Batch != batch || p.Cores != cores {
			continue
		}
		if _, ok := byVariant[p.Variant]; !ok {
			order = append(order, p.Variant)
		}
		byVariant[p.Variant] = append(byVariant[p.Variant], report.Point{X: p.Rate, Y: float64(p.Result.P99)})
	}
	for _, v := range order {
		c.AddSeries(v, byVariant[v])
	}
	return c
}

// LatencyCDFChart charts each variant's full latency CDF at one grid cell
// (log-x via the bucket bounds stays implicit; x is linear in cycles).
func LatencyCDFChart(points []SweepPoint, rate float64, batch, cores int) *report.Curve {
	c := &report.Curve{
		Title:  fmt.Sprintf("latency CDF at %.0f req/Mcycle (K=%d, cores=%d)", rate, batch, cores),
		XLabel: "latency (cycles)",
		YLabel: "fraction of requests",
	}
	for _, p := range points {
		if p.Rate != rate || p.Batch != batch || p.Cores != cores {
			continue
		}
		c.AddSeries(p.Variant, p.Result.Hist.CDFPoints())
	}
	return c
}
