// Package specpersist's root benchmarks regenerate every table and figure
// of the paper's evaluation (one benchmark per table/figure; see DESIGN.md
// §4 for the experiment index).
//
// Each benchmark runs the corresponding experiment at a laptop scale
// (override with SPECPERSIST_BENCH_SCALE) and reports the figure's headline
// metric through b.ReportMetric, so `go test -bench=.` both regenerates the
// numbers and records them. cmd/figures prints the full tables.
package specpersist

import (
	"os"
	"strconv"
	"testing"

	"specpersist/internal/cluster"
	"specpersist/internal/core"
	"specpersist/internal/exec"
	"specpersist/internal/fault"
	"specpersist/internal/litmus"
	"specpersist/internal/pstruct"
	"specpersist/internal/report"
	"specpersist/internal/sp"
	"specpersist/internal/vstore"
	"specpersist/internal/workload"
)

// benchScale is intentionally small so the full -bench=. sweep finishes in
// minutes; shapes are scale-stable (EXPERIMENTS.md discusses fidelity).
func benchScale() float64 {
	if s := os.Getenv("SPECPERSIST_BENCH_SCALE"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.004
}

// BenchmarkCoreInstrRate measures the simulator's own speed, not the
// simulated machine's: committed (simulated) instructions retired per
// wall-clock second by the single-core hot loop, on HM under SP.
// scripts/bench_core.sh appends the metric to BENCH_core.json so the
// trajectory of the simulator's performance is tracked across commits.
func BenchmarkCoreInstrRate(b *testing.B) { coreInstrRate(b, core.VariantSP) }

// BenchmarkCoreInstrRateLogPSf is BenchmarkCoreInstrRate on the fenced
// Log+P+Sf machine, whose preamble chains start behind a fence stall
// instead of under speculation.
func BenchmarkCoreInstrRateLogPSf(b *testing.B) { coreInstrRate(b, core.VariantLogPSf) }

func coreInstrRate(b *testing.B, v core.Variant) {
	bench, err := workload.FindBench("HM")
	if err != nil {
		b.Fatal(err)
	}
	rc := workload.RunConfig{Variant: v, Scale: benchScale(), Seed: 1}
	// Every iteration repeats one configuration, so all but the first
	// would fork the image the first one populated. An untimed run
	// populates it up front, so that each timed iteration forks it and the
	// rate does not depend on -benchtime. BenchmarkPaperSuite times
	// population.
	workload.MustRun(bench, rc)
	var committed uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		committed += workload.MustRun(bench, rc).Stats.Committed
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(committed)/secs, "sim-instrs/s")
	}
}

// BenchmarkPaperSuite measures a paper-suite round: one iteration runs the
// seven Table 1 benchmarks under Log+P+Sf and under SP, serially, so the
// rate covers population as well as timing. Each bench's two variants
// share one populated image.
func BenchmarkPaperSuite(b *testing.B) {
	runs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bench := range workload.Table1() {
			for _, v := range []core.Variant{core.VariantLogPSf, core.VariantSP} {
				workload.MustRun(bench, workload.RunConfig{Variant: v, Scale: benchScale(), Seed: 1})
				runs++
			}
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(runs)/secs, "runs/s")
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if workload.Table1Report().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if workload.Table2Report().String() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if workload.Table3Report().String() == "" {
			b.Fatal("empty table")
		}
	}
}

// variantRatios runs every Table 1 benchmark under a variant and returns
// cycles ratios to Base.
func variantRatios(s *workload.Suite, v core.Variant) []float64 {
	var out []float64
	for _, bench := range workload.Table1() {
		base := s.Get(bench, core.VariantBase).Stats.Cycles
		out = append(out, float64(s.Get(bench, v).Stats.Cycles)/float64(base))
	}
	return out
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := workload.NewSuite(benchScale(), 1)
		logOvh := report.GeoMeanOverhead(variantRatios(s, core.VariantLog))
		sfOvh := report.GeoMeanOverhead(variantRatios(s, core.VariantLogPSf))
		spOvh := report.GeoMeanOverhead(variantRatios(s, core.VariantSP))
		b.ReportMetric(100*logOvh, "Log-ovh-%")
		b.ReportMetric(100*sfOvh, "Log+P+Sf-ovh-%")
		b.ReportMetric(100*spOvh, "SP-ovh-%")
		if spOvh >= sfOvh {
			b.Fatalf("SP overhead %.1f%% not below Log+P+Sf %.1f%%", 100*spOvh, 100*sfOvh)
		}
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := workload.NewSuite(benchScale(), 1)
		var ratios []float64
		for _, bench := range workload.Table1() {
			base := s.Get(bench, core.VariantBase).Stats.Committed
			ratios = append(ratios, float64(s.Get(bench, core.VariantLogPSf).Stats.Committed)/float64(base))
		}
		b.ReportMetric(1+report.GeoMeanOverhead(ratios), "instr-ratio")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := workload.NewSuite(benchScale(), 1)
		var sf, spv float64
		for _, bench := range workload.Table1() {
			base := float64(s.Get(bench, core.VariantBase).Stats.Cycles)
			sf += float64(s.Get(bench, core.VariantLogPSf).Stats.FetchQStallCycles) / base
			spv += float64(s.Get(bench, core.VariantSP).Stats.FetchQStallCycles) / base
		}
		n := float64(len(workload.Table1()))
		b.ReportMetric(sf/n, "Sf-fetchstall-ratio")
		b.ReportMetric(spv/n, "SP-fetchstall-ratio")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := workload.NewSuite(benchScale(), 1)
		maxConc := 0
		for _, bench := range workload.Table1() {
			if m := s.Get(bench, core.VariantLogP).Stats.MaxConcurrentPcommits; m > maxConc {
				maxConc = m
			}
		}
		b.ReportMetric(float64(maxConc), "max-inflight-pcommits")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := workload.NewSuite(benchScale(), 1)
		var sum float64
		for _, bench := range workload.Table1() {
			sum += s.Get(bench, core.VariantLogP).Stats.AvgStoresPerPcommit()
		}
		b.ReportMetric(sum/float64(len(workload.Table1())), "stores-per-pcommit")
	}
}

// ssbOptions is the SP machine with an SSB of the given size.
func ssbOptions(entries int) *core.Options {
	o := core.DefaultOptions().For(core.VariantSP)
	o.CPU.SP.SSBEntries = entries
	return &o
}

func BenchmarkFig13(b *testing.B) {
	// The SSB size sweep: report the gmean overhead at the two paper
	// design points (128 and 256 entries).
	for i := 0; i < b.N; i++ {
		for _, size := range []int{128, 256} {
			var ratios []float64
			for _, bench := range workload.Table1() {
				base := workload.MustRun(bench, workload.RunConfig{
					Variant: core.VariantBase, Scale: benchScale(), Seed: 1,
				}).Stats.Cycles
				r := workload.MustRun(bench, workload.RunConfig{
					Variant: core.VariantSP, Scale: benchScale(), Seed: 1, Options: ssbOptions(size),
				})
				ratios = append(ratios, float64(r.Stats.Cycles)/float64(base))
			}
			b.ReportMetric(100*report.GeoMeanOverhead(ratios),
				"SP"+strconv.Itoa(size)+"-ovh-%")
		}
	}
}

func BenchmarkFig13FullSweep(b *testing.B) {
	if testing.Short() {
		b.Skip("full SSB sweep")
	}
	for i := 0; i < b.N; i++ {
		for _, size := range sp.SSBSizes() {
			var ratios []float64
			for _, bench := range workload.Table1() {
				base := workload.MustRun(bench, workload.RunConfig{
					Variant: core.VariantBase, Scale: benchScale(), Seed: 1,
				}).Stats.Cycles
				r := workload.MustRun(bench, workload.RunConfig{
					Variant: core.VariantSP, Scale: benchScale(), Seed: 1, Options: ssbOptions(size),
				})
				ratios = append(ratios, float64(r.Stats.Cycles)/float64(base))
			}
			b.ReportMetric(100*report.GeoMeanOverhead(ratios),
				"SP"+strconv.Itoa(size)+"-ovh-%")
		}
	}
}

// BenchmarkAblationSP runs the SP design-choice ablations from DESIGN.md
// §5 (no bloom, no barrier-pair collapse, no delayed PMEM replay,
// checkpoint sizes) and reports each configuration's gmean overhead.
func BenchmarkAblationSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := workload.NewSuite(benchScale(), 1)
		for _, p := range workload.AblationPoints() {
			var ratios []float64
			for _, bench := range workload.Table1() {
				base := s.Get(bench, core.VariantBase).Stats.Cycles
				o := core.DefaultOptions()
				o.CPU.SP = p.SP
				r := workload.MustRun(bench, workload.RunConfig{
					Variant: core.VariantSP, Scale: benchScale(), Seed: 1, Options: &o,
				})
				ratios = append(ratios, float64(r.Stats.Cycles)/float64(base))
			}
			b.ReportMetric(100*report.GeoMeanOverhead(ratios), p.Name+"-ovh-%")
		}
	}
}

// BenchmarkLoggingPolicy compares the paper's §3.2 design choice on the
// B-tree: full logging (4 barriers per op, conservative log set) vs
// incremental logging (per-step barriers, minimal log set).
func BenchmarkLoggingPolicy(b *testing.B) {
	bench, err := workload.FindBench("BT")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		full := workload.MustRun(bench, workload.RunConfig{
			Variant: core.VariantLogPSf, Scale: benchScale(), Seed: 1,
		})
		inc := workload.MustRun(bench, workload.RunConfig{
			Variant: core.VariantLogPSf, Scale: benchScale(), Seed: 1, IncrementalBT: true,
		})
		b.ReportMetric(float64(full.Stats.Pcommits)/float64(full.SimOps), "full-pcommits/op")
		b.ReportMetric(float64(inc.Stats.Pcommits)/float64(inc.SimOps), "incr-pcommits/op")
		b.ReportMetric(float64(inc.Stats.Cycles)/float64(full.Stats.Cycles), "incr/full-cycles")
	}
}

func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := workload.NewSuite(benchScale(), 1)
		var worst float64
		for _, bench := range workload.Table1() {
			if r := s.Get(bench, core.VariantSP).Stats.BloomFalsePositiveRate(); r > worst {
				worst = r
			}
		}
		b.ReportMetric(worst, "worst-bloom-fp-rate")
	}
}

// BenchmarkClusterFleet measures the replicated-fleet engine's own speed
// on a kind network — the chaos fabric compiled in but disabled, the
// default request deadlines and heartbeats running — as offered requests
// simulated per wall-clock second. scripts/bench_core.sh appends the metric to
// BENCH_core.json, so chaos-off overhead creeping into the fleet hot loop
// fails the benchtrend regression gate.
func BenchmarkClusterFleet(b *testing.B) {
	cfg := cluster.DefaultConfig()
	cfg.Requests = 512
	cfg.Rate = 300
	var offered uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cluster.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		offered += r.Stats.Offered
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(offered)/secs, "sim-reqs/s")
	}
}

// fleetServeConfig is simbench's fleet-serve shape at the given request
// count: 16 SP nodes serving the versioned store, R=3 with a majority
// quorum, group commit K=4 with a 2,000-cycle batch deadline and Poisson
// arrivals at 6,400 req/Mcycle over 4,096 keys.
func fleetServeConfig(requests int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Structure = "VT"
	cfg.Variant = core.VariantSP
	cfg.Nodes = 16
	cfg.Replicas = 3
	cfg.Quorum = 0
	cfg.BatchMax = 4
	cfg.BatchDeadline = 2000
	cfg.Rate = 6400
	cfg.Requests = requests
	cfg.Keyspace = 4096
	cfg.Warmup = 256
	cfg.Seed = 1
	return cfg
}

// BenchmarkClusterFleetServe measures the fleet-serve shape, audited, as
// offered requests simulated per wall-clock second. Sixteen busy nodes
// make this the event loop's densest shape, where every node's run
// overlaps its neighbours'. 2,000 requests keep one iteration well under
// a second. scripts/bench_core.sh appends the metric to BENCH_core.json.
func BenchmarkClusterFleetServe(b *testing.B) {
	cfg := fleetServeConfig(2000)
	var offered uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cluster.RunAudited(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Audit.Clean() {
			b.Fatalf("audit found %d violations", r.Audit.Total)
		}
		offered += r.Stats.Offered
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(offered)/secs, "sim-reqs/s")
	}
}

// BenchmarkVstoreCommit measures the versioned COW store's changeset-commit
// hot path: groups of toggles over a bounded keyspace, each group sealed by
// one two-barrier Commit, as commits per wall-clock second.
// scripts/bench_core.sh appends the metric to BENCH_core.json, so COW
// shadowing or manifest bookkeeping creeping into the commit path fails
// the benchtrend regression gate.
func BenchmarkVstoreCommit(b *testing.B) {
	// Each iteration is a batch of commits so even -benchtime 1x (the CI
	// smoke) measures a steady-state sample large enough for the 20%
	// regression gate.
	const groupOps, groups = 8, 64
	env := exec.New()
	s := vstore.New(env, vstore.Config{Versions: 1 << 22})
	key := func(n int) uint64 { return (uint64(n) * 2654435761) % 4096 }
	for j := 0; j < 4096; j += 2 {
		s.Toggle(uint64(j))
	}
	s.Commit()
	n := 0
	var commits uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for g := 0; g < groups; g++ {
			for j := 0; j < groupOps; j++ {
				s.Toggle(key(n))
				n++
			}
			s.Commit()
			commits++
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(commits)/secs, "sim-commits/s")
	}
}

// BenchmarkFaultCampaign measures the crash-campaign engine's own speed:
// the exhaustive torn+recrash campaign over every structure
// (pstruct.AllNames) with one probed operation, on one worker, as trials
// per wall-clock second. scripts/bench_core.sh appends the metric to
// BENCH_core.json, so per-trial work creeping back into the campaign path
// (rebuilding the warm-up prefix, say) fails the benchtrend regression
// gate.
func BenchmarkFaultCampaign(b *testing.B) {
	var trials int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := (&fault.Engine{Workers: 1, Samples: 1, Torn: true, Recrash: true}).Run(fault.Campaign{
			Structures: pstruct.AllNames(), Variant: core.VariantLogPSf, Seed: 1, Ops: 1, Exhaustive: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Violations != 0 {
			b.Fatalf("%d violations under the fenced variant", rep.Violations)
		}
		trials += rep.Trials
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(trials)/secs, "trials/s")
	}
}

// BenchmarkLitmusCampaign measures the litmus engine's own speed: the
// curated corpus plus 40 seeded programs, each checked against the
// reference and run on the machine in every mode, on one worker, as trials
// per wall-clock second. scripts/bench_core.sh appends the metric to
// BENCH_core.json.
func BenchmarkLitmusCampaign(b *testing.B) {
	var trials int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := litmus.Campaign(litmus.CampaignConfig{Curated: true, Programs: 40, Seed: 1, Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("%d violations against the strict reference", res.Violations)
		}
		trials += len(res.Trials)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(trials)/secs, "trials/s")
	}
}

// BenchmarkChaosCampaign measures the chaos engine's own speed: eight
// audited trials of the default chaos fleet (cluster.DefaultChaosBase) on
// one worker, as trials per wall-clock second. scripts/bench_core.sh
// appends the metric to BENCH_core.json.
func BenchmarkChaosCampaign(b *testing.B) {
	var trials int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Campaign(cluster.CampaignConfig{
			Base: cluster.DefaultChaosBase(), Trials: 8, Seed: 1, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Violations != 0 {
			b.Fatalf("%d violations in a healthy fleet", res.Violations)
		}
		trials += len(res.Trials)
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(trials)/secs, "trials/s")
	}
}
