package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strings"
	"time"

	"specpersist/internal/pstruct"
)

// workloadNames lists the workloads in sorted order; README.md says why
// each exists.
var workloadNames = []string{"campaigns", "fleet-serve", "paper-suite"}

// sizes fixes how much work one round of each workload does.
type sizes struct {
	suiteScale      float64  // workload.RunConfig.Scale of every paper-suite run
	fleetRequests   int      // offered requests per fleet run (>= 10,000 keeps p99.9 ten samples deep)
	faultStructures []string // structures the crash campaign probes
	faultOps        int      // operations probed per structure by the crash campaign
	litmusPrograms  int      // seeded programs beside the curated corpus
	chaosTrials     int      // chaos campaign trials
}

// fullSize is what the benchmark measures; tests use smaller sizes.
var fullSize = sizes{suiteScale: 0.004, fleetRequests: 12000, faultStructures: pstruct.AllNames(), faultOps: 1, litmusPrograms: 100, chaosTrials: 24}

// warmSize is the round each set-up ends with: every entry point the timed
// round calls, on small inputs, so that first-use costs are paid in set-up.
var warmSize = sizes{suiteScale: 0.0002, fleetRequests: 400, faultStructures: []string{"GH"}, faultOps: 1, litmusPrograms: 1, chaosTrials: 2}

// bench is one workload bound to its seed and sizes.
type bench struct {
	// batch runs one round's fixed work, filling r.
	batch func(tr *tracer, r *round)
}

func newBench(name string, seed int64, sz sizes, workers int) (*bench, error) {
	switch name {
	case "paper-suite":
		return paperSuite(seed, sz), nil
	case "fleet-serve":
		return fleetServe(seed, sz), nil
	case "campaigns":
		return campaigns(seed, sz, workers), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// run executes one round and seals its digest.
func (b *bench) run(tr *tracer) *round {
	r := &round{sim: map[string]float64{}, counts: map[string]float64{}, calls: map[string]float64{}, h: sha256.New()}
	t := time.Now()
	tr.call(r, "round", func() { b.batch(tr, r) })
	r.seconds = time.Since(t).Seconds()
	r.digest = hex.EncodeToString(r.h.Sum(nil))[:16]
	return r
}

// round is the outcome of one batch. Everything but seconds, calls,
// allocMB and gcs is simulated, so it repeats exactly for a seed.
type round struct {
	attempted, failed int
	problems          []string // correctness failures beyond failed operations

	instrs, reqs, trials uint64             // committed instructions, offered requests, campaign trials
	sim                  map[string]float64 // simulated end-to-end results
	counts               map[string]float64 // simulated per-layer counts
	h                    hash.Hash          // digest of every simulated output, in order
	digest               string

	seconds      float64            // host wall time of the batch
	scaled       float64            // seconds scaled to the nominal host (calib.go)
	calls        map[string]float64 // host seconds per call boundary (traced rounds)
	allocMB, gcs float64
	rssMB        float64 // resident-set peak during the batch
}

// fail counts n failed operations and says why.
func (r *round) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// record folds one simulated output into the digest.
func (r *round) record(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		r.problems = append(r.problems, fmt.Sprintf("digest: %v", err))
		return
	}
	r.h.Write(b)
}

// hostRates are the workload's throughputs at the given round time, which
// is scaled to the nominal host.
func (r *round) hostRates(secs float64) map[string]float64 {
	out := map[string]float64{"ops_per_s": float64(r.attempted) / secs}
	if r.instrs > 0 {
		out["sim_instrs_per_s"] = float64(r.instrs) / secs
	}
	if r.reqs > 0 {
		out["sim_reqs_per_s"] = float64(r.reqs) / secs
	}
	if r.trials > 0 {
		out["trials_per_s"] = float64(r.trials) / secs
	}
	return out
}

// engineSeconds is the host time of one campaign engine's calls.
func (r *round) engineSeconds(engine string) float64 {
	s := 0.0
	for k, v := range r.calls {
		if k == "call_s."+engine || strings.HasPrefix(k, "call_s."+engine+".") {
			s += v
		}
	}
	return s
}

// tracer records spans at the benchmark's call boundaries. A disabled
// tracer only calls through.
type tracer struct {
	on    bool
	round int
	t0    time.Time
	spans []span
	open  []int // indices of the enclosing spans
}

// span is one timed call; times are seconds since the first traced round.
type span struct {
	Name   string  `json:"name"`
	Round  int     `json:"round"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for a round
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// begin enables the tracer for round i.
func (t *tracer) begin(i int) *tracer {
	if t.t0.IsZero() {
		t.t0 = time.Now()
	}
	t.on, t.round = true, i
	return t
}

// call runs fn inside a span named name and adds its duration to
// r.calls[name].
func (t *tracer) call(r *round, name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Round: t.round, Parent: parent, Start: time.Since(t.t0).Seconds()})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	fn()
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].End = time.Since(t.t0).Seconds()
	if name != "round" {
		r.calls[name] += t.spans[idx].End - t.spans[idx].Start
	}
}

// counter names one reported metric and its unit.
type counter struct{ name, unit string }

// endToEnd are the metrics of an untraced run, each reported on every
// workload. The workload-specific rates and simulated results are printed
// above the JSON line.
var endToEnd = []counter{{"setup_s", "s"}, {"ops_per_s", "1/s"}}

// engines are the campaign engines whose trial rates a traced run reports.
var engines = []string{"fault", "litmus", "chaos"}

// perLayer lists the metrics of a traced run. Those a workload does not
// exercise read 0.
func perLayer() []counter {
	var out []counter
	for _, l := range layerNames {
		out = append(out, counter{"host_ms." + l, "ms"})
	}
	for _, p := range phaseNames {
		out = append(out, counter{"host_ms.phase." + p, "ms"})
	}
	out = append(out, counter{"host_ms.total", "ms"})
	for _, c := range callNames() {
		out = append(out, counter{c, "s"})
	}
	for _, e := range engines {
		out = append(out, counter{e + ".trials_per_s", "1/s"})
	}
	out = append(out, counter{"trace_overhead_frac", "1"}, counter{"runtime.alloc_mb", "MB"},
		counter{"runtime.gc_count", "count"}, counter{"peak_rss_mb", "MB"})
	out = append(out, perLayerCounts...)
	for _, k := range simKeys {
		out = append(out, counter{k, simUnit(k)})
	}
	return out
}

// perLayerCounts are the simulated counts a traced run reports, summed
// over one round.
var perLayerCounts = []counter{
	{"cpu.cycles.logpsf", "cycles"}, {"cpu.cycles.sp", "cycles"}, {"cpu.committed", "count"},
	{"cpu.stall.fence_cycles.logpsf", "cycles"}, {"cpu.stall.fence_cycles.sp", "cycles"},
	{"cpu.stall.fetchq_cycles.sp", "cycles"}, {"cpu.stall.ssb_full_cycles", "cycles"},
	{"cpu.stall.checkpoint_cycles", "cycles"},
	{"cpu.sp.epochs", "count"}, {"cpu.sp.rollbacks", "count"}, {"cpu.sp.rollback_cycles", "cycles"},
	{"cpu.sp.bloom.fp_rate", "1"},
	{"cache.l1.misses", "count"}, {"cache.l2.misses", "count"}, {"cache.l3.misses", "count"},
	{"cache.writebacks", "count"}, {"mem.pcommits", "count"}, {"mem.wpq.stalls", "count"},
	{"mem.writes", "count"}, {"txn.txns", "count"}, {"txn.entries", "count"},
	{"vstore.commits", "count"}, {"vstore.nodes_written", "count"},
	{"cluster.net_msgs", "count"}, {"cluster.repl_msgs", "count"}, {"cluster.groups", "count"},
	{"pcommits_per_req", "1"},
	{"fault.trials", "count"}, {"fault.crashes", "count"}, {"pmem.torn_lines", "count"},
	{"litmus.trials", "count"}, {"litmus.ref_states", "count"}, {"litmus.mode_runs", "count"},
	{"litmus.capped", "count"}, {"chaos.trials", "count"}, {"cluster.retries", "count"},
	{"cluster.timed_out", "count"}, {"controls.trials", "count"}, {"controls.caught", "count"},
}

// simKeys are the simulated end-to-end results. They repeat exactly for a
// seed, so a traced run reports them beside the per-layer counts.
var simKeys = []string{"sp_cycle_ratio", "fleet_p50_cycles", "fleet_p999_cycles", "fleet_samples"}

func simUnit(k string) string {
	switch {
	case strings.HasSuffix(k, "_cycles"):
		return "cycles"
	case k == "fleet_samples":
		return "count"
	}
	return "1"
}
