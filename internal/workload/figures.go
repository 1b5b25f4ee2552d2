package workload

import (
	"fmt"

	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/obs"
	"specpersist/internal/report"
	"specpersist/internal/sp"
)

// Suite assembles the evaluation tables and figures from simulation
// results. Each figure first declares the full grid of jobs it needs,
// executes the missing ones through the Runner as a single batch — so a
// parallel runner overlaps them — and then reads every cell from the
// in-memory result map. Results are shared across figures (8–10 reuse one
// set of simulations), and the assembly order is fixed, so the rendered
// output is byte-identical no matter how the runner schedules the work.
type Suite struct {
	Scale float64
	Seed  int64
	// Runner executes job batches; nil means SerialRunner. cmd/figures
	// installs a sweep.Engine here for parallelism and disk caching.
	Runner Runner
	// results maps job fingerprints to completed results.
	results map[string]Result
}

// NewSuite returns an experiment suite at the given scale (0 = default).
func NewSuite(scale float64, seed int64) *Suite {
	return &Suite{Scale: scale, Seed: seed, results: make(map[string]Result)}
}

func (s *Suite) runner() Runner {
	if s.Runner == nil {
		return SerialRunner{}
	}
	return s.Runner
}

// prime runs every job not yet in the result map as one batch.
func (s *Suite) prime(jobs []Job) {
	var missing []Job
	batched := make(map[string]bool)
	for _, j := range jobs {
		fp := j.Fingerprint()
		if _, ok := s.results[fp]; ok || batched[fp] {
			continue
		}
		batched[fp] = true
		missing = append(missing, j)
	}
	if len(missing) == 0 {
		return
	}
	rs, err := s.runner().RunJobs(missing)
	if err != nil {
		panic(err) // experiment drivers treat a failed run as fatal (cf. MustRun)
	}
	for i, j := range missing {
		s.results[j.Fingerprint()] = rs[i]
	}
}

// get returns the job's result, running it on demand if no batch primed
// it yet.
func (s *Suite) get(j Job) Result {
	fp := j.Fingerprint()
	if r, ok := s.results[fp]; ok {
		return r
	}
	s.prime([]Job{j})
	return s.results[fp]
}

// job builds the suite's standard job for one benchmark and variant.
func (s *Suite) job(b Bench, v core.Variant) Job {
	return NewJob(b, v, s.Scale, s.Seed)
}

// grid lists the suite jobs for every Table 1 benchmark crossed with the
// given variants.
func (s *Suite) grid(variants ...core.Variant) []Job {
	var jobs []Job
	for _, b := range Table1() {
		for _, v := range variants {
			jobs = append(jobs, s.job(b, v))
		}
	}
	return jobs
}

// Get runs (or returns the cached) benchmark x variant simulation.
func (s *Suite) Get(b Bench, v core.Variant) Result {
	return s.get(s.job(b, v))
}

// Table1Report renders the benchmark table.
func Table1Report() *report.Table {
	t := &report.Table{
		Title:   "Table 1: benchmarks (paper-scale InitOps/SimOps)",
		Columns: []string{"Benchmark", "Description", "#InitOps", "#SimOps"},
	}
	for _, b := range Table1() {
		t.AddRow(b.Name, b.Desc, fmt.Sprint(b.InitOps), fmt.Sprint(b.SimOps))
	}
	return t
}

// Table2Report renders the baseline system configuration.
func Table2Report() *report.Table {
	t := &report.Table{
		Title:   "Table 2: baseline system configuration",
		Columns: []string{"Component", "Configuration"},
	}
	c := cpu.DefaultConfig()
	t.AddRow("Processor", fmt.Sprintf("OOO, 2.1GHz, %d-wide issue/retire", c.IssueWidth))
	t.AddRow("", fmt.Sprintf("ROB: %d, fetchQ/issueQ/LSQ: %d/%d/%d", c.ROB, c.FetchQ, c.IssueQ, c.LSQ))
	t.AddRow("L1D", "32KB, 8-way, 64B block, 2 cycles")
	t.AddRow("L2", "256KB, 8-way, 64B block, 11 cycles")
	t.AddRow("L3", "2MB, 16-way, 64B block, 20 cycles")
	t.AddRow("SSB", "variable size and latency (Table 3)")
	t.AddRow("Checkpoint Buffer", fmt.Sprintf("%d entries", cpu.DefaultSPConfig().Checkpoints))
	t.AddRow("NVMM", "50ns read, 150ns write (105/315 cycles)")
	return t
}

// Table3Report renders the SSB size/latency table.
func Table3Report() *report.Table {
	t := &report.Table{
		Title:   "Table 3: SSB configurations and parameters",
		Columns: []string{"Num entries", "Latency (cycles)"},
	}
	for _, n := range sp.SSBSizes() {
		t.AddRow(fmt.Sprint(n), fmt.Sprint(sp.SSBLatency(n)))
	}
	return t
}

// Fig8 reproduces Figure 8: execution-time overheads of Log, Log+P,
// Log+P+Sf and SP256, normalized to the non-persistent baseline.
func (s *Suite) Fig8() *report.Table {
	s.prime(s.grid(core.Variants()...))
	t := &report.Table{
		Title:   "Figure 8: execution time overhead vs Base",
		Columns: []string{"Bench", "Log", "Log+P", "Log+P+Sf", "SP256"},
	}
	variants := []core.Variant{core.VariantLog, core.VariantLogP, core.VariantLogPSf, core.VariantSP}
	ratios := make(map[core.Variant][]float64)
	for _, b := range Table1() {
		base := s.Get(b, core.VariantBase).Stats.Cycles
		row := []string{b.Name}
		for _, v := range variants {
			c := s.Get(b, v).Stats.Cycles
			row = append(row, report.Pct(report.Overhead(c, base)))
			ratios[v] = append(ratios[v], float64(c)/float64(base))
		}
		t.AddRow(row...)
	}
	gm := []string{"gmean"}
	for _, v := range variants {
		gm = append(gm, report.Pct(report.GeoMeanOverhead(ratios[v])))
	}
	t.AddRow(gm...)

	// The paper's headline: SP's overhead over Log+P vs Log+P+Sf's.
	var spOverP, sfOverP []float64
	for _, b := range Table1() {
		p := float64(s.Get(b, core.VariantLogP).Stats.Cycles)
		spOverP = append(spOverP, float64(s.Get(b, core.VariantSP).Stats.Cycles)/p)
		sfOverP = append(sfOverP, float64(s.Get(b, core.VariantLogPSf).Stats.Cycles)/p)
	}
	t.AddNote("overhead over Log+P (fence cost): Log+P+Sf %s, SP %s (paper: 20.3%% -> 3.6%%)",
		report.Pct(report.GeoMeanOverhead(sfOverP)), report.Pct(report.GeoMeanOverhead(spOverP)))
	return t
}

// Fig9 reproduces Figure 9: committed-instruction ratio to baseline.
func (s *Suite) Fig9() *report.Table {
	s.prime(s.grid(core.VariantBase, core.VariantLog, core.VariantLogP, core.VariantLogPSf))
	t := &report.Table{
		Title:   "Figure 9: committed instructions / Base",
		Columns: []string{"Bench", "Log", "Log+P", "Log+P+Sf"},
	}
	for _, b := range Table1() {
		base := s.Get(b, core.VariantBase).Stats.Committed
		row := []string{b.Name}
		for _, v := range []core.Variant{core.VariantLog, core.VariantLogP, core.VariantLogPSf} {
			row = append(row, report.Ratio(float64(s.Get(b, v).Stats.Committed)/float64(base)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig10 reproduces Figure 10: fetch-queue stall cycles / baseline cycles.
func (s *Suite) Fig10() *report.Table {
	s.prime(s.grid(core.Variants()...))
	t := &report.Table{
		Title:   "Figure 10: fetch queue stall cycles / Base cycles",
		Columns: []string{"Bench", "Log", "Log+P", "Log+P+Sf", "SP256"},
	}
	for _, b := range Table1() {
		base := s.Get(b, core.VariantBase).Stats.Cycles
		row := []string{b.Name}
		for _, v := range []core.Variant{core.VariantLog, core.VariantLogP, core.VariantLogPSf, core.VariantSP} {
			row = append(row, report.Ratio(float64(s.Get(b, v).Stats.FetchQStallCycles)/float64(base)))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11 reproduces Figure 11: maximum in-flight pcommits, measured on
// Log+P (no fences), motivating the 4-entry checkpoint buffer.
func (s *Suite) Fig11() *report.Table {
	s.prime(s.grid(core.VariantLogP))
	t := &report.Table{
		Title:   "Figure 11: maximum number of in-flight pcommits (Log+P)",
		Columns: []string{"Bench", "Max concurrent pcommits"},
	}
	for _, b := range Table1() {
		r := s.Get(b, core.VariantLogP)
		t.AddRow(b.Name, fmt.Sprint(r.Stats.MaxConcurrentPcommits))
	}
	return t
}

// Fig12 reproduces Figure 12: average stores (incl. clwb/clflush) executed
// while a pcommit is outstanding, measured on Log+P.
func (s *Suite) Fig12() *report.Table {
	s.prime(s.grid(core.VariantLogP))
	t := &report.Table{
		Title:   "Figure 12: avg speculative-window stores per outstanding pcommit (Log+P)",
		Columns: []string{"Bench", "Stores/pcommit"},
	}
	for _, b := range Table1() {
		r := s.Get(b, core.VariantLogP)
		t.AddRow(b.Name, fmt.Sprintf("%.1f", r.Stats.AvgStoresPerPcommit()))
	}
	return t
}

// ssbJob is the Figure 13 job: SP at a specific SSB size.
func (s *Suite) ssbJob(b Bench, entries int) Job {
	spc := cpu.DefaultSPConfig()
	spc.SSBEntries = entries
	return s.spJob(b, spc)
}

// spJob is one benchmark under SP with the given SP hardware.
func (s *Suite) spJob(b Bench, spc cpu.SPConfig) Job {
	j := s.job(b, core.VariantSP)
	o := core.DefaultOptions()
	o.CPU.SP = spc
	j.Config.Options = &o
	return j
}

// Fig13 reproduces Figure 13: SP overhead vs baseline across SSB sizes.
func (s *Suite) Fig13() *report.Table {
	sizes := sp.SSBSizes()
	jobs := s.grid(core.VariantBase)
	for _, b := range Table1() {
		for _, n := range sizes {
			jobs = append(jobs, s.ssbJob(b, n))
		}
	}
	s.prime(jobs)

	cols := []string{"Bench"}
	for _, n := range sizes {
		cols = append(cols, fmt.Sprintf("SP%d", n))
	}
	t := &report.Table{Title: "Figure 13: SP overhead vs Base across SSB sizes", Columns: cols}
	ratios := make([][]float64, len(sizes))
	for _, b := range Table1() {
		base := s.Get(b, core.VariantBase).Stats.Cycles
		row := []string{b.Name}
		for i, n := range sizes {
			r := s.get(s.ssbJob(b, n))
			row = append(row, report.Pct(report.Overhead(r.Stats.Cycles, base)))
			ratios[i] = append(ratios[i], float64(r.Stats.Cycles)/float64(base))
		}
		t.AddRow(row...)
	}
	gm := []string{"gmean"}
	for i := range sizes {
		gm = append(gm, report.Pct(report.GeoMeanOverhead(ratios[i])))
	}
	t.AddRow(gm...)
	return t
}

// StallBreakdown decomposes retirement stalls by cause for Log+P+Sf and
// SP256 — an extension of the Figure 10 analysis showing where the fence
// cost goes and what residual stalls SP leaves. It reads the unified
// metrics snapshot, so its columns are the canonical obs stall keys.
func (s *Suite) StallBreakdown() *report.Table {
	s.prime(s.grid(core.VariantBase, core.VariantLogPSf, core.VariantSP))
	t := &report.Table{
		Title: "Stall breakdown: complete-but-blocked ROB-head cycles / Base cycles",
		Columns: []string{"Bench", "Variant", "fence", "checkpoint", "ssb-full",
			"storebuf", "flush-order"},
	}
	keys := []string{obs.KeyStallFence, obs.KeyStallCheckpoint, obs.KeyStallSSBFull,
		obs.KeyStallStoreBuf, obs.KeyStallFlushOrder}
	for _, b := range Table1() {
		base := float64(s.Get(b, core.VariantBase).Metrics[obs.KeyCycles])
		for _, v := range []core.Variant{core.VariantLogPSf, core.VariantSP} {
			m := s.Get(b, v).Metrics
			row := []string{b.Name, v.String()}
			for _, k := range keys {
				row = append(row, report.Ratio(float64(m[k])/base))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// StallAttribution renders the "where did the cycles go" report for one
// benchmark under one variant: every stall cause as a fraction of that
// run's own cycles (obs.StallReport semantics).
func (s *Suite) StallAttribution(b Bench, v core.Variant) *report.Table {
	r := s.Get(b, v)
	t := &report.Table{
		Title:   fmt.Sprintf("Stall attribution: %s under %s", b.Name, v),
		Columns: []string{"Cause", "Cycles", "Fraction"},
	}
	for _, line := range obs.StallReport(r.Metrics) {
		t.AddRow(line.Cause, fmt.Sprint(line.Cycles), fmt.Sprintf("%.1f%%", line.Frac*100))
	}
	return t
}

// LogFootprint reports the write-ahead-logging volume per benchmark — the
// mechanism behind Figure 8's Log bars: trees with full logging write an
// order of magnitude more undo entries per operation than the flat
// structures.
func (s *Suite) LogFootprint() *report.Table {
	s.prime(s.grid(core.VariantLogPSf))
	t := &report.Table{
		Title:   "Undo-log footprint (Log+P+Sf): line entries per transaction",
		Columns: []string{"Bench", "Txns", "Entries/txn", "Max entries"},
	}
	for _, b := range Table1() {
		r := s.Get(b, core.VariantLogPSf)
		avg := 0.0
		if r.Txn.Txns > 0 {
			avg = float64(r.Txn.Entries) / float64(r.Txn.Txns)
		}
		t.AddRow(b.Name, fmt.Sprint(r.Txn.Txns), fmt.Sprintf("%.1f", avg), fmt.Sprint(r.Txn.MaxEntries))
	}
	return t
}

// Fig14 reproduces Figure 14: Bloom-filter false-positive rates under
// SP256.
func (s *Suite) Fig14() *report.Table {
	s.prime(s.grid(core.VariantSP))
	t := &report.Table{
		Title:   "Figure 14: Bloom filter false positive rate (SP256)",
		Columns: []string{"Bench", "FP rate", "Queries", "False positives"},
	}
	for _, b := range Table1() {
		r := s.Get(b, core.VariantSP)
		t.AddRow(b.Name,
			fmt.Sprintf("%.4f", r.Stats.BloomFalsePositiveRate()),
			fmt.Sprint(r.Stats.BloomQueries),
			fmt.Sprint(r.Stats.BloomFalsePositives))
	}
	return t
}
