// Package sweep is the experiment-orchestration engine: it expands a
// declarative sweep specification into a deterministic job list, executes
// the jobs on a worker pool, and memoizes every completed run in a
// content-addressed on-disk cache so repeated or interrupted sweeps skip
// work that is already done.
//
// The engine is what makes a paper-scale reproduction practical: the full
// Figure 8–14 grid is an embarrassingly parallel cross-product of
// independent simulations (runs that share a populated image share it
// read-only and each simulate a fork of it, see workload.NewGenerator),
// so wall-clock time divides by the worker count, and a sweep killed
// halfway resumes from the cache instead of from zero.
package sweep

import (
	"fmt"

	"specpersist/internal/core"
	"specpersist/internal/workload"
)

// Spec is a declarative sweep: the cross-product of every listed axis.
// Empty axes fall back to defaults (all Table 1 benchmarks, all Figure 8
// variants, seed 1, baseline hardware knobs). The zero value is the
// standard evaluation grid.
type Spec struct {
	// Benches lists Table 1 abbreviations (GH HM LL SS AT BT RT); empty
	// means all of them.
	Benches []string `json:"benches,omitempty"`
	// Variants lists Figure 8 bar labels (Base, Log, Log+P, Log+P+Sf,
	// SP); empty means all of them.
	Variants []string `json:"variants,omitempty"`
	// Scale multiplies Table 1 op counts (0 = workload.DefaultScale,
	// 1.0 = paper scale).
	Scale float64 `json:"scale,omitempty"`
	// Seeds lists operation-stream seeds; empty means {1}.
	Seeds []int64 `json:"seeds,omitempty"`
	// SSB lists SP store-buffer sizes (Figure 13); 0 = the SP256
	// default. Ignored for non-speculative variants.
	SSB []int `json:"ssb,omitempty"`
	// Checkpoints lists SP checkpoint-buffer sizes; 0 = the default.
	Checkpoints []int `json:"checkpoints,omitempty"`
	// Banks lists NVMM bank counts; 0 = the default controller.
	Banks []int `json:"banks,omitempty"`
	// OpOverhead lists per-op application-preamble lengths (0 = default,
	// -1 = none).
	OpOverhead []int `json:"op_overhead,omitempty"`
	// MaxTraceOps caps the measured ops per run regardless of scale
	// (0 = no cap).
	MaxTraceOps int `json:"max_trace_ops,omitempty"`
}

// Plan expands the spec into its job list. The expansion is deterministic
// (the axes crossed in declaration order, the first varying slowest:
// bench, variant, seed, ssb, checkpoints, banks, op-overhead), normalized
// (knobs a variant ignores are zeroed), deduplicated (the first occurrence
// of each distinct job wins), and validated (unknown names and degenerate
// scales are errors).
func Plan(spec Spec) ([]workload.Job, error) {
	benchNames := spec.Benches
	if len(benchNames) == 0 {
		for _, b := range workload.Table1() {
			benchNames = append(benchNames, b.Name)
		}
	}
	var benches []workload.Bench
	for _, name := range benchNames {
		b, err := workload.FindBench(name)
		if err != nil {
			return nil, err
		}
		benches = append(benches, b)
	}

	var variants []core.Variant
	if len(spec.Variants) == 0 {
		variants = core.Variants()
	} else {
		for _, name := range spec.Variants {
			v, err := core.ParseVariant(name)
			if err != nil {
				return nil, err
			}
			variants = append(variants, v)
		}
	}

	for _, n := range spec.SSB {
		if n < 0 {
			return nil, fmt.Errorf("sweep: negative SSB size %d", n)
		}
	}
	for _, n := range spec.Checkpoints {
		if n < 0 {
			return nil, fmt.Errorf("sweep: negative checkpoint count %d", n)
		}
	}
	for _, n := range spec.Banks {
		if n < 0 {
			return nil, fmt.Errorf("sweep: negative bank count %d", n)
		}
	}

	// One cell per job before normalization; an empty axis keeps the
	// cell's default (seed 1, zero knobs).
	type cell struct {
		b                  workload.Bench
		v                  core.Variant
		seed               int64
		ssb, ck, bank, ovh int
	}
	grid := Cross([]cell{{seed: 1}}, benches, func(c *cell, b workload.Bench) { c.b = b })
	grid = Cross(grid, variants, func(c *cell, v core.Variant) { c.v = v })
	grid = Cross(grid, spec.Seeds, func(c *cell, seed int64) { c.seed = seed })
	grid = Cross(grid, spec.SSB, func(c *cell, n int) { c.ssb = n })
	grid = Cross(grid, spec.Checkpoints, func(c *cell, n int) { c.ck = n })
	grid = Cross(grid, spec.Banks, func(c *cell, n int) { c.bank = n })
	grid = Cross(grid, spec.OpOverhead, func(c *cell, n int) { c.ovh = n })

	var jobs []workload.Job
	seen := make(map[string]bool)
	for _, c := range grid {
		opts := core.DefaultOptions().For(c.v)
		if c.ssb > 0 {
			opts.CPU.SP.SSBEntries = c.ssb
		}
		if c.ck > 0 {
			opts.CPU.SP.Checkpoints = c.ck
		}
		if c.bank > 0 {
			opts.Mem.Banks = c.bank
		}
		rc := workload.RunConfig{
			Variant:     c.v,
			Scale:       spec.Scale,
			Seed:        c.seed,
			Options:     &opts,
			OpOverhead:  c.ovh,
			MaxTraceOps: spec.MaxTraceOps,
		}
		j := workload.Job{Bench: c.b, Config: rc}.Normalize()
		if err := j.Validate(); err != nil {
			return nil, err
		}
		fp := j.Fingerprint()
		if seen[fp] {
			continue
		}
		seen[fp] = true
		jobs = append(jobs, j)
	}
	return jobs, nil
}
