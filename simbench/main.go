// Command simbench is the repository's benchmark. It runs one named
// workload of the simulator repeatedly for a fixed wall-clock time, checks
// every simulated output, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics of a separate traced run) as one JSON
// line. README.md in this directory documents every metric.
//
//	go run . --workload paper-suite --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the campaign engines' pool size.
const workers = 2

// hostProcs is a workload's OS-thread budget. The campaign pool gets one
// thread per worker. The single-goroutine workloads get one thread, so that
// their wall time includes the garbage collector's work rather than
// depending on whether a second core happens to be idle.
func hostProcs(workload string) int {
	if workload == "campaigns" {
		return workers
	}
	return 1
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 5

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "wall-clock seconds to measure for")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if !slices.Contains(workloadNames, *name) {
		fmt.Fprintf(os.Stderr, "simbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(os.Stderr, "simbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		os.Exit(2)
	}
	if !(*seconds > 0) {
		fmt.Fprintf(os.Stderr, "simbench: --seconds must be positive, got %g\n", *seconds)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(hostProcs(*name))

	res, err := measure(*name, *seed, *seconds, *traceFlag == 1, sinceProcessStart(start))
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// sinceProcessStart is the time spent before main began: exec, runtime and
// package initialisation. run.sh passes the launch time in SIMBENCH_T0
// (Unix seconds); without it the count starts at main.
func sinceProcessStart(mainEntry time.Time) time.Duration {
	t0, err := strconv.ParseFloat(os.Getenv("SIMBENCH_T0"), 64)
	if err != nil {
		return 0
	}
	d := mainEntry.Sub(time.Unix(0, int64(t0*1e9)))
	if d < 0 || d > time.Minute {
		return 0
	}
	return d
}

// measure sets the workload up setupReps times, then runs rounds of its
// fixed batch until the time is spent, timing the reference kernels before
// set-up and after set-up and each round. Untraced it reports the
// end-to-end metrics; traced it alternates untraced and profiled rounds and
// reports the per-layer metrics.
func measure(name string, seed int64, seconds float64, traced bool, preMain time.Duration) (result, error) {
	var (
		w      *bench
		setups []float64
		refs   = []float64{refSeconds()}
	)
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		var err error
		if w, err = newBench(name, seed, fullSize, workers); err != nil {
			return result{}, err
		}
		warm, _ := newBench(name, seed, warmSize, workers)
		if r := warm.run(&tracer{}); r.failed > 0 || len(r.problems) > 0 {
			return result{}, fmt.Errorf("%s: warm-up round: %s", name, strings.Join(r.problems, "; "))
		}
		setups = append(setups, time.Since(t).Seconds())
		fmt.Fprintf(os.Stderr, "simbench: %s set-up %d %.3fs\n", name, i, setups[i])
	}
	refs = append(refs, refSeconds())
	wallSetup := preMain.Seconds() + median(setups)
	setupS := wallSetup / hostSlowdown(refs[0], refs[1])

	var (
		plain, prof []*round
		tr          = &tracer{}
		layers      = newFold()
		digest      string
		problems    []string
	)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; len(plain) == 0 || traced && len(prof) == 0 || time.Now().Before(deadline); i++ {
		profiled := traced && i%2 == 1
		runtime.GC()
		resetPeakRSS()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var r *round
		if profiled {
			var err error
			r, err = layers.profile(func() *round { return w.run(tr.begin(i)) })
			if err != nil {
				return result{}, err
			}
		} else {
			r = w.run(&tracer{})
		}
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		r.gcs = float64(ms1.NumGC - ms0.NumGC)
		r.rssMB = peakRSSMB()
		if digest == "" {
			digest = r.digest
		} else if r.digest != digest {
			problems = append(problems, fmt.Sprintf("round %d digest %s differs from round 0's %s", i, r.digest, digest))
		}
		if profiled {
			prof = append(prof, r)
		} else {
			plain = append(plain, r)
		}
		refs = append(refs, refSeconds())
		r.scaled = r.seconds / hostSlowdown(refs[len(refs)-2], refs[len(refs)-1])
		fmt.Fprintf(os.Stderr, "simbench: %s round %d (%s) %.3fs, %.3fs scaled\n", name, i, map[bool]string{true: "profiled", false: "plain"}[profiled], r.seconds, r.scaled)
	}

	first := plain[0]
	problems = append(problems, first.problems...)
	secs := median(pick(plain, func(r *round) float64 { return r.seconds }))
	scaled := median(pick(plain, func(r *round) float64 { return r.scaled }))
	// A round's resident-set peak depends on which trials the pool happens
	// to run side by side, so the median round is reported.
	rss := median(pick(plain, func(r *round) float64 { return r.rssMB }))

	// The human-readable report names every workload-level metric of the
	// workload; the JSON line below it carries the gated subset.
	fmt.Printf("workload %s seed %d: %d rounds untraced, %d profiled; digest %s\n", name, seed, len(plain), len(prof), digest)
	report := func(k string, v float64, unit string) { fmt.Printf("  %-26s %14.6g %s\n", k, v, unit) }
	report("host_slowdown", median(refs)/refNominal, "1")
	report("wall_setup_s", wallSetup, "s")
	report("wall_ops_per_s", float64(first.attempted)/secs, "1/s")
	report("setup_s", setupS, "s")
	rates := first.hostRates(scaled)
	for _, k := range sortedKeys(rates) {
		report(k, rates[k], "1/s")
	}
	for _, k := range sortedKeys(first.sim) {
		report(k, first.sim[k], simUnit(k))
	}
	report("peak_rss_mb", rss, "MB")
	report("failed_frac", float64(first.failed)/float64(first.attempted), "1")
	for _, p := range problems {
		fmt.Printf("  PROBLEM: %s\n", p)
	}

	vals := map[string]float64{}
	list := endToEnd
	if !traced {
		vals["setup_s"] = setupS
		vals["ops_per_s"] = rates["ops_per_s"]
	} else {
		list = perLayer()
		for k, v := range first.counts {
			vals[k] = v
		}
		for k, v := range first.sim {
			vals[k] = v
		}
		n := float64(len(prof))
		for l, v := range layers.layer {
			vals["host_ms."+l] = v / n
		}
		for p, v := range layers.phase {
			vals["host_ms.phase."+p] = v / n
		}
		vals["host_ms.total"] = layers.total / n
		for _, c := range callNames() {
			vals[c] = median(pick(prof, func(r *round) float64 { return r.calls[c] }))
		}
		for _, e := range engines {
			if s := median(pick(prof, func(r *round) float64 { return r.engineSeconds(e) })); s > 0 {
				vals[e+".trials_per_s"] = first.counts[e+".trials"] / s
			}
		}
		vals["trace_overhead_frac"] = median(pick(prof, func(r *round) float64 { return r.scaled }))/scaled - 1
		vals["runtime.alloc_mb"] = median(pick(plain, func(r *round) float64 { return r.allocMB }))
		vals["runtime.gc_count"] = median(pick(plain, func(r *round) float64 { return r.gcs }))
		vals["peak_rss_mb"] = rss
		if err := writeTrace(name, seed, tr, layers); err != nil {
			return result{}, err
		}
	}
	res := result{
		Correct:   first.failed == 0 && len(problems) == 0,
		Attempted: first.attempted,
		Failed:    first.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range list {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res, nil
}

// traceDir is where a traced run writes its spans and layer table, under
// run.sh's default build directory.
var traceDir = filepath.Join(".bench_build", "trace")

// writeTrace saves the traced rounds' spans and layer table.
func writeTrace(name string, seed int64, tr *tracer, f *fold) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Spans  []span             `json:"spans"`
		Layers map[string]float64 `json:"layers_ms"`
		Phases map[string]float64 `json:"phases_ms"`
	}{tr.spans, f.layer, f.phase}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so that
// peakRSSMB reads the peak since the call. A kernel without the reset
// leaves the mark alone, and peakRSSMB then reads the process's peak so
// far, which is still an upper bound.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func pick(rs []*round, f func(*round) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
