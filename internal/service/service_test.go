package service

import (
	"strings"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/obs"
)

func TestRunBasicInvariants(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 400
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := res.Stats
	if st.Offered != uint64(cfg.Requests) {
		t.Errorf("offered %d, want %d", st.Offered, cfg.Requests)
	}
	if st.Completed+st.Dropped != st.Offered {
		t.Errorf("accounting: %d completed + %d dropped != %d offered", st.Completed, st.Dropped, st.Offered)
	}
	if st.Admitted != st.Completed {
		t.Errorf("every admitted request must complete: admitted %d, completed %d", st.Admitted, st.Completed)
	}
	if res.Hist.N != st.Completed {
		t.Errorf("histogram holds %d samples, want %d", res.Hist.N, st.Completed)
	}
	if st.Batches < st.Runs || st.Batches != uint64(st.Completed) {
		// K=1: every request is its own commit group.
		t.Errorf("K=1 commit groups %d, runs %d, completed %d", st.Batches, st.Runs, st.Completed)
	}
	if res.P50 == 0 || res.P99 < res.P50 || res.Hist.Max < res.P99 {
		t.Errorf("percentiles not ordered: p50=%d p99=%d max=%d", res.P50, res.P99, res.Hist.Max)
	}
	if res.Throughput <= 0 || st.SpanCycles == 0 {
		t.Errorf("throughput %g over %d cycles", res.Throughput, st.SpanCycles)
	}
	if res.Metrics["service.completed"] != st.Completed {
		t.Errorf("registry snapshot disagrees with stats: %d vs %d",
			res.Metrics["service.completed"], st.Completed)
	}
}

// TestGroupCommitAmortizesPcommits is the group-commit acceptance check:
// with K>1 the serving phase must issue fewer device pcommits than it
// completes requests, strictly fewer than the K=1 protocol, and the
// coalesced-trio counter must show where they went.
func TestGroupCommitAmortizesPcommits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 2000
	cfg.BatchMax = 8
	cfg.BatchDeadline = 5000
	grouped, err := Run(cfg)
	if err != nil {
		t.Fatalf("grouped run: %v", err)
	}
	cfg.BatchMax = 1
	cfg.BatchDeadline = 0
	single, err := Run(cfg)
	if err != nil {
		t.Fatalf("single run: %v", err)
	}
	g, s := grouped.Stats, single.Stats
	if g.GroupedRequests == 0 {
		t.Fatal("no requests shared a commit group; the scenario is too idle to test group commit")
	}
	if g.Pcommits >= g.Completed {
		t.Errorf("K=8 issued %d pcommits for %d requests; group commit must amortize below one per request",
			g.Pcommits, g.Completed)
	}
	if g.Pcommits >= s.Pcommits {
		t.Errorf("K=8 issued %d pcommits, K=1 issued %d; grouping must reduce them", g.Pcommits, s.Pcommits)
	}
	if g.CoalescedBarriers == 0 {
		t.Error("coalesced-barrier counter stayed zero despite K=8")
	}
	if s.CoalescedBarriers != 0 {
		t.Errorf("K=1 coalesced %d barriers; coalescing must be off", s.CoalescedBarriers)
	}
}

// TestSpeculationRaisesSLOCapacity is the headline acceptance check: at the
// chosen p99 SLO, the SP server sustains strictly higher offered load than
// the non-speculative Log+P+Sf baseline (per-request barriers, K=1).
func TestSpeculationRaisesSLOCapacity(t *testing.T) {
	sc := DefaultSweepConfig()
	sc.Rates = []float64{300, 500, 700}
	sc.Variants = []core.Variant{core.VariantLogPSf, core.VariantSP}
	sc.Batches = []int{1}
	points, err := LatencySweep(sc)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	var sp, base []SweepPoint
	for _, p := range points {
		switch p.Variant {
		case core.VariantSP.String():
			sp = append(sp, p)
		case core.VariantLogPSf.String():
			base = append(base, p)
		}
	}
	slo := ChooseSLO(sp, base)
	spLoad, baseLoad := MaxSustainedRate(sp, slo), MaxSustainedRate(base, slo)
	if spLoad <= baseLoad {
		t.Errorf("at p99 SLO %d cycles, SP sustains %g req/Mcycle vs baseline %g; speculation must raise capacity",
			slo, spLoad, baseLoad)
	}
}

func TestBoundedQueueShedsOverload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 20000
	cfg.QueueCap = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := res.Stats
	if st.Dropped == 0 {
		t.Fatal("overload scenario produced no drops")
	}
	if st.Completed+st.Dropped != st.Offered {
		t.Errorf("accounting under drops: %d + %d != %d", st.Completed, st.Dropped, st.Offered)
	}
	if st.MaxQueueDepth > cfg.QueueCap {
		t.Errorf("queue depth %d exceeded capacity %d", st.MaxQueueDepth, cfg.QueueCap)
	}
}

func TestMultiCoreRunCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 1200
	cfg.Cores = 3
	cfg.Requests = 120
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Stats.Completed != res.Stats.Offered {
		t.Errorf("completed %d of %d offered", res.Stats.Completed, res.Stats.Offered)
	}
	// Key hashing must actually spread load: each shard's core commits work.
	for _, key := range []string{"core0.cpu.committed", "core1.cpu.committed", "core2.cpu.committed"} {
		if res.Metrics[key] == 0 {
			t.Errorf("%s = 0; shard saw no work", key)
		}
	}
}

func TestBurstyArrivals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Process = Bursty
	cfg.Rate = 300
	cfg = cfg.withDefaults()
	reqs := cfg.arrivals()
	onLen := uint64(float64(cfg.BurstPeriod) * cfg.BurstOnFrac)
	for i, r := range reqs {
		if phase := r.At % cfg.BurstPeriod; phase > onLen {
			t.Fatalf("request %d arrives at %d (phase %d), outside the %d-cycle ON window", i, r.At, phase, onLen)
		}
		if i > 0 && r.At < reqs[i-1].At {
			t.Fatalf("arrivals not sorted: %d after %d", r.At, reqs[i-1].At)
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("bursty run: %v", err)
	}
	if res.Stats.Completed+res.Stats.Dropped != res.Stats.Offered {
		t.Error("bursty accounting broken")
	}
}

// TestReadOnlyTrafficIssuesNoPcommits pins the warmup exclusion: pure-get
// traffic performs no transactions, so the serving phase must report zero
// pcommits even though warmup issued hundreds.
func TestReadOnlyTrafficIssuesNoPcommits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rate = 500
	cfg.GetFrac = 1.0
	cfg.Requests = 64
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Stats.Pcommits != 0 {
		t.Errorf("read-only serving phase reported %d pcommits; warmup is leaking into the counter",
			res.Stats.Pcommits)
	}
}

func TestTimelineRecordsServiceTrack(t *testing.T) {
	tl := obs.NewTimeline(1 << 14)
	cfg := DefaultConfig()
	cfg.Rate = 600
	cfg.Requests = 64
	cfg.Timeline = tl
	if _, err := Run(cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	var sb strings.Builder
	if err := tl.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"service.run", "service.commit", "service.queue_depth"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("timeline trace missing %q events", want)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero rate", func(c *Config) { c.Rate = 0 }, "rate"},
		{"negative rate", func(c *Config) { c.Rate = -3 }, "rate"},
		{"base variant", func(c *Config) { c.Variant = core.VariantBase }, "durable commit"},
		{"log variant", func(c *Config) { c.Variant = core.VariantLog }, "durable commit"},
		{"unknown structure", func(c *Config) { c.Structure = "ZZ" }, "structure"},
		{"unknown process", func(c *Config) { c.Process = "fractal" }, "process"},
		{"zero burst frac", func(c *Config) { c.BurstOnFrac = -0.5 }, "fraction"},
		{"big burst frac", func(c *Config) { c.BurstOnFrac = 1.5 }, "fraction"},
		{"negative requests", func(c *Config) { c.Requests = -1 }, "request count"},
		{"negative queue", func(c *Config) { c.QueueCap = -1 }, "queue"},
		{"negative batch", func(c *Config) { c.BatchMax = -1 }, "batch"},
		{"bad get frac", func(c *Config) { c.GetFrac = 1.5 }, "get fraction"},
		{"negative keyspace", func(c *Config) { c.Keyspace = -2 }, "keyspace"},
		{"negative warmup", func(c *Config) { c.Warmup = -1 }, "warmup"},
		{"negative ssb", func(c *Config) { c.SSBEntries = -1 }, "SSB"},
		{"negative log cap", func(c *Config) { c.LogCap = -3 }, "log capacity"},
	}
	for _, tc := range bad {
		cfg := DefaultConfig()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config must validate, got %v", err)
	}
	if err := (Config{Serving: Serving{Rate: 100, Variant: core.VariantSP, Seed: 1}}).Validate(); err != nil {
		t.Errorf("zero-valued optional knobs must validate via defaults, got %v", err)
	}
}

// TestRunReportsTooSmallLogCap: an undo log too small for one operation,
// whether it overflows during warmup or while serving, is Run's error and
// not a panic.
func TestRunReportsTooSmallLogCap(t *testing.T) {
	for _, warmup := range []int{128, 0} {
		cfg := DefaultConfig()
		cfg.Requests, cfg.Warmup, cfg.LogCap = 8, warmup, 1
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "log capacity 1 exceeded") {
			t.Errorf("warmup %d: Run returned %v, want a log capacity error", warmup, err)
		}
	}
}

func TestArrivalScheduleIsSeedStable(t *testing.T) {
	cfg := DefaultConfig().withDefaults()
	a := cfg.arrivals()
	b := cfg.arrivals()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across identical generations: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg2 := cfg
	cfg2.Seed = 2
	c := cfg2.arrivals()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced an identical schedule")
	}
}

// TestGroupStartNeverPrecedesMemberArrival is the regression test for the
// batch-full scheduling bug: when the K-th request fills a batch, the run
// must start at that arrival, not at the queue head's (earlier) arrival —
// otherwise the group commits before its youngest member arrives. The
// scenario (2 shards, K=8, saturating rate) reproduced the original
// time-travel underflow.
func TestGroupStartNeverPrecedesMemberArrival(t *testing.T) {
	defer func() { debugCompletions = nil }()
	lastDone := map[int]uint64{}
	var completions int
	debugCompletions = func(shard, i int, at, done uint64) {
		completions++
		if done < at {
			t.Errorf("shard %d member %d: durable at cycle %d before its arrival %d", shard, i, done, at)
		}
		if done < lastDone[shard] {
			t.Errorf("shard %d: completion cycle %d went backwards from %d", shard, done, lastDone[shard])
		}
		lastDone[shard] = done
	}
	cfg := DefaultConfig()
	cfg.Rate = 2000
	cfg.Cores = 2
	cfg.BatchMax = 8
	cfg.BatchDeadline = 5000
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if uint64(completions) != res.Stats.Completed || completions == 0 {
		t.Fatalf("debug hook saw %d completions, stats say %d", completions, res.Stats.Completed)
	}
}
