// Command sweep plans and executes an experiment sweep — the cross-product
// of benchmarks, variants, seeds and hardware knobs — on a worker pool
// with a content-addressed result cache, and emits machine-readable
// results.json.
//
// Usage:
//
//	sweep                                   # full Figure 8 grid, default scale
//	sweep -bench LL,HM -variants Base,SP    # a sub-grid
//	sweep -ssb 32,64,128,256,512,1024       # the Figure 13 sweep
//	sweep -spec spec.json -j 8 -out results.json
//	sweep -dry-run                          # print the plan only
//
// The spec file is the JSON form of the flag grid (see EXPERIMENTS.md).
// Completed runs are cached under -cache (default .sweepcache); rerunning
// an interrupted or repeated sweep skips every job already on disk, and
// results.json is byte-identical for any -j.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"specpersist/internal/sweep"
	"specpersist/internal/workload"
)

// record is one job's entry in results.json: the fully-resolved
// configuration, its cache key, and the simulation result. Execution
// metadata (timing, cache hits) deliberately stays out so the file is
// identical across worker counts and cache states.
type record struct {
	Bench       string  `json:"bench"`
	Variant     string  `json:"variant"`
	Scale       float64 `json:"scale"`
	Seed        int64   `json:"seed"`
	SSB         int     `json:"ssb,omitempty"`
	Checkpoints int     `json:"checkpoints,omitempty"`
	Banks       int     `json:"banks,omitempty"`
	OpOverhead  int     `json:"op_overhead,omitempty"`
	MaxTraceOps int     `json:"max_trace_ops,omitempty"`
	Key         string  `json:"key"`

	Result workload.Result `json:"result"`
}

type output struct {
	Spec sweep.Spec `json:"spec"`
	Jobs []record   `json:"jobs"`
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func intList(name, s string) []int {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			log.Fatalf("-%s: %v", name, err)
		}
		out = append(out, n)
	}
	return out
}

func int64List(name, s string) []int64 {
	var out []int64
	for _, f := range splitList(s) {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			log.Fatalf("-%s: %v", name, err)
		}
		out = append(out, n)
	}
	return out
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		specPath = flag.String("spec", "", "sweep spec JSON file (\"-\" = stdin); overrides the grid flags")
		benches  = flag.String("bench", "", "comma-separated benchmarks (empty = all Table 1)")
		variants = flag.String("variants", "", "comma-separated variants (empty = all five)")
		scale    = flag.Float64("scale", 0, "scale factor for Table 1 op counts (0 = default, 1.0 = paper)")
		seeds    = flag.String("seeds", "", "comma-separated seeds (empty = 1)")
		ssb      = flag.String("ssb", "", "comma-separated SSB sizes for SP (0 = default)")
		ckpts    = flag.String("checkpoints", "", "comma-separated checkpoint counts for SP (0 = default)")
		banks    = flag.String("banks", "", "comma-separated NVMM bank counts (0 = default)")
		overhead = flag.String("op-overhead", "", "comma-separated per-op preamble lengths (0 = default, -1 = none)")
		maxOps   = flag.Int("max-trace-ops", 0, "cap measured ops per run (0 = no cap)")
		jobs     = flag.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache", sweep.DefaultCacheDir, "result cache directory (empty = no cache)")
		outPath  = flag.String("out", "-", "results JSON destination (\"-\" = stdout)")
		dryRun   = flag.Bool("dry-run", false, "print the job plan without running anything")
		quiet    = flag.Bool("q", false, "suppress per-job progress on stderr")
	)
	flag.Parse()

	var spec sweep.Spec
	if *specPath != "" {
		var data []byte
		var err error
		if *specPath == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(*specPath)
		}
		if err != nil {
			log.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			log.Fatalf("spec %s: %v", *specPath, err)
		}
	} else {
		spec = sweep.Spec{
			Benches:     splitList(*benches),
			Variants:    splitList(*variants),
			Scale:       *scale,
			Seeds:       int64List("seeds", *seeds),
			SSB:         intList("ssb", *ssb),
			Checkpoints: intList("checkpoints", *ckpts),
			Banks:       intList("banks", *banks),
			OpOverhead:  intList("op-overhead", *overhead),
			MaxTraceOps: *maxOps,
		}
	}

	plan, err := sweep.Plan(spec)
	if err != nil {
		log.Fatal(err)
	}
	if *dryRun {
		fmt.Printf("%d jobs:\n", len(plan))
		for _, j := range plan {
			fmt.Printf("  %s\n", j.Label())
		}
		return
	}

	eng := &sweep.Engine{Workers: *jobs}
	if *cacheDir != "" {
		c, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		eng.Cache = c
	}
	if !*quiet {
		eng.Progress = os.Stderr
	}

	jrs, err := eng.Run(plan)
	if err != nil {
		log.Fatal(err)
	}

	out := output{Spec: spec, Jobs: make([]record, len(jrs))}
	for i, jr := range jrs {
		rc := jr.Job.Config
		m := rc.Machine()
		out.Jobs[i] = record{
			Bench:       jr.Job.Bench.Name,
			Variant:     rc.Variant.String(),
			Scale:       rc.EffectiveScale(),
			Seed:        rc.Seed,
			SSB:         m.CPU.SP.SSBEntries,
			Checkpoints: m.CPU.SP.Checkpoints,
			Banks:       m.Mem.Banks,
			OpOverhead:  rc.OpOverhead,
			MaxTraceOps: rc.MaxTraceOps,
			Key:         sweep.Key(jr.Job),
			Result:      jr.Result,
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *outPath == "-" {
		os.Stdout.Write(data)
	} else if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		log.Fatal(err)
	}
}
