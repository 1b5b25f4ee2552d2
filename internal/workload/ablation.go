package workload

import (
	"fmt"

	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/report"
)

// AblationPoint is one SP design-space configuration.
type AblationPoint struct {
	Name string
	Desc string
	SP   cpu.SPConfig
}

// AblationPoints returns the SP design choices DESIGN.md calls out, each
// toggled off individually against the paper's SP256 design point.
func AblationPoints() []AblationPoint {
	def := cpu.DefaultSPConfig()

	noBloom := def
	noBloom.UseBloom = false

	noCollapse := def
	noCollapse.CollapseBarrierPair = false

	noDelay := def
	noDelay.DelayPMEMOps = false

	ck2 := def
	ck2.Checkpoints = 2
	ck8 := def
	ck8.Checkpoints = 8

	return []AblationPoint{
		{Name: "SP256", Desc: "paper design point", SP: def},
		{Name: "no-bloom", Desc: "every speculative load pays the SSB CAM latency", SP: noBloom},
		{Name: "no-collapse", Desc: "sfence-pcommit-sfence costs two checkpoints", SP: noCollapse},
		{Name: "no-delay", Desc: "in-shadow PMEM ops stall instead of replaying at commit", SP: noDelay},
		{Name: "ckpt-2", Desc: "2-entry checkpoint buffer", SP: ck2},
		{Name: "ckpt-8", Desc: "8-entry checkpoint buffer", SP: ck8},
	}
}

// Ablation runs every ablation point over the Table 1 benchmarks and
// reports the gmean overhead vs Base for each.
func (s *Suite) Ablation() *report.Table {
	jobs := s.grid(core.VariantBase, core.VariantLogP, core.VariantLogPSf)
	for _, p := range AblationPoints() {
		for _, b := range Table1() {
			jobs = append(jobs, s.spJob(b, p.SP))
		}
	}
	s.prime(jobs)

	t := &report.Table{
		Title:   "Ablation: SP design choices (gmean overhead vs Base)",
		Columns: []string{"Config", "Overhead", "Notes"},
	}
	for _, p := range AblationPoints() {
		var ratios []float64
		for _, b := range Table1() {
			base := s.Get(b, core.VariantBase).Stats.Cycles
			r := s.get(s.spJob(b, p.SP))
			ratios = append(ratios, float64(r.Stats.Cycles)/float64(base))
		}
		t.AddRow(p.Name, report.Pct(report.GeoMeanOverhead(ratios)), p.Desc)
	}
	// Reference rows: the software-only variants.
	for _, v := range []core.Variant{core.VariantLogP, core.VariantLogPSf} {
		var ratios []float64
		for _, b := range Table1() {
			base := s.Get(b, core.VariantBase).Stats.Cycles
			ratios = append(ratios, float64(s.Get(b, v).Stats.Cycles)/float64(base))
		}
		t.AddRow(v.String(), report.Pct(report.GeoMeanOverhead(ratios)), "no speculation reference")
	}
	return t
}

// checkpointJob is one benchmark under SP with an overridden
// checkpoint-buffer size.
func (s *Suite) checkpointJob(b Bench, n int) Job {
	spc := cpu.DefaultSPConfig()
	spc.Checkpoints = n
	return s.spJob(b, spc)
}

// CheckpointSweep measures gmean SP overhead for checkpoint buffer sizes
// 1..8 (the paper picks 4 from Figure 11).
func (s *Suite) CheckpointSweep() *report.Table {
	sizes := []int{1, 2, 3, 4, 6, 8}
	jobs := s.grid(core.VariantBase)
	for _, n := range sizes {
		for _, b := range Table1() {
			jobs = append(jobs, s.checkpointJob(b, n))
		}
	}
	s.prime(jobs)

	t := &report.Table{
		Title:   "Checkpoint-buffer sweep (gmean SP overhead vs Base)",
		Columns: []string{"Checkpoints", "Overhead"},
	}
	for _, n := range sizes {
		var ratios []float64
		for _, b := range Table1() {
			base := s.Get(b, core.VariantBase).Stats.Cycles
			r := s.get(s.checkpointJob(b, n))
			ratios = append(ratios, float64(r.Stats.Cycles)/float64(base))
		}
		t.AddRow(fmt.Sprint(n), report.Pct(report.GeoMeanOverhead(ratios)))
	}
	return t
}
