// Command benchtrend appends one measurement to a benchmark-trajectory
// JSON file. It reads `go test -bench` output on stdin, extracts a named
// custom metric (b.ReportMetric unit), and appends an entry tagged with
// the commit and date to the target file — an array of measurements,
// oldest first. scripts/bench_core.sh drives it for BENCH_core.json.
//
// Usage:
//
//	go test -run '^$' -bench CoreInstrRate . | benchtrend -file BENCH_core.json -commit abc1234 -date 2026-08-08
//	benchtrend -file BENCH_core.json -check   # validate the trajectory file only
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// Entry is one point of the trajectory.
type Entry struct {
	Date   string  `json:"date"`
	Commit string  `json:"commit"`
	Bench  string  `json:"bench"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	// Note, set by hand, says why a value stepped (e.g. the benchmark's
	// work changed); benchtrend only carries it along.
	Note string `json:"note,omitempty"`
}

// parseMetric scans `go test -bench` output for the first benchmark line
// carrying the named custom metric and returns the benchmark name and the
// metric value. Benchmark lines look like:
//
//	BenchmarkCoreInstrRate-8   3   401ms/op   1234567 sim-instrs/s
func parseMetric(r io.Reader, metric string) (bench string, value float64, err error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		for i := 2; i < len(fields); i++ {
			if fields[i] != metric {
				continue
			}
			v, perr := strconv.ParseFloat(fields[i-1], 64)
			if perr != nil {
				return "", 0, fmt.Errorf("benchtrend: metric %s on %s has non-numeric value %q", metric, fields[0], fields[i-1])
			}
			name := fields[0]
			if cut := strings.LastIndex(name, "-"); cut > 0 {
				name = name[:cut] // strip the -GOMAXPROCS suffix
			}
			return name, v, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", 0, err
	}
	return "", 0, fmt.Errorf("benchtrend: no benchmark line with metric %q on stdin", metric)
}

// load reads the trajectory file; a missing file is an empty trajectory.
func load(path string) ([]Entry, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var es []Entry
	if err := json.Unmarshal(b, &es); err != nil {
		return nil, fmt.Errorf("benchtrend: %s: %w", path, err)
	}
	return es, nil
}

func save(path string, es []Entry) error {
	b, err := json.MarshalIndent(es, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gateRegressions compares, per benchmark name, the newest entry against
// its predecessor: a drop of more than pct percent fails. Higher-is-better
// metrics only (the trajectory records rates). Single-entry benchmarks
// pass trivially — there is nothing to regress from.
func gateRegressions(es []Entry, pct float64) error {
	prev := map[string]Entry{}
	newest := map[string]Entry{}
	for _, e := range es {
		if cur, ok := newest[e.Bench]; ok {
			prev[e.Bench] = cur
		}
		newest[e.Bench] = e
	}
	for bench, e := range newest {
		p, ok := prev[bench]
		if !ok {
			continue
		}
		floor := p.Value * (1 - pct/100)
		if e.Value < floor {
			return fmt.Errorf("%s regressed %.1f%%: %.0f (%s) -> %.0f (%s), floor %.0f at -regress-pct %.0f",
				bench, 100*(1-e.Value/p.Value), p.Value, p.Commit, e.Value, e.Commit, floor, pct)
		}
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtrend: ")
	var (
		file   = flag.String("file", "BENCH_core.json", "trajectory file to append to")
		metric = flag.String("metric", "sim-instrs/s", "custom metric unit to extract")
		commit = flag.String("commit", "unknown", "commit id to tag the entry with")
		date   = flag.String("date", "unknown", "date to tag the entry with (YYYY-MM-DD)")
		check  = flag.Bool("check", false, "validate the trajectory file and gate regressions, read nothing")
		rpct   = flag.Float64("regress-pct", 20, "with -check: fail when a benchmark's newest entry falls more than this percent below its predecessor")
	)
	flag.Parse()

	es, err := load(*file)
	if err != nil {
		log.Fatal(err)
	}
	if *check {
		for i, e := range es {
			if e.Bench == "" || e.Metric == "" || e.Value <= 0 {
				log.Fatalf("%s: entry %d is malformed: %+v", *file, i, e)
			}
		}
		if err := gateRegressions(es, *rpct); err != nil {
			log.Fatalf("%s: %v", *file, err)
		}
		fmt.Printf("%s: %d entries ok\n", *file, len(es))
		return
	}
	bench, value, err := parseMetric(os.Stdin, *metric)
	if err != nil {
		log.Fatal(err)
	}
	es = append(es, Entry{Date: *date, Commit: *commit, Bench: bench, Metric: *metric, Value: value})
	if err := save(*file, es); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s %s = %.0f (%d entries)\n", *file, bench, *metric, value, len(es))
}
