// Command crashtest drives the internal/fault crash-consistency engine: it
// crashes transactional operations on the benchmark structures at injected
// persistence events (exhaustively or randomized), optionally tears cache
// lines at 8-byte granularity and re-crashes inside recovery, verifies
// write-ahead-log recovery restores an atomic state, and delta-minimizes any
// failing trial into a JSON reproducer.
//
// Usage:
//
//	crashtest -exhaustive -torn -recrash            # full safety campaign
//	crashtest -variant Log+P -expect-violations     # negative control
//	crashtest -exhaustive -json > report.json       # machine-readable report
//	crashtest -replay plan.json                     # replay one reproducer
//	crashtest -replay min.json -expect-violations   # a control's reproducer must violate
//	crashtest -spdiff                               # SP rollback differential
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"specpersist/internal/core"
	"specpersist/internal/fault"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
)

// aliases maps user-friendly structure names onto pstruct.Names() entries.
var aliases = map[string]string{
	"list": "LL", "ll": "LL",
	"hm": "HM", "hash": "HM", "hashmap": "HM",
	"gh": "GH", "graph": "GH",
	"ss": "SS", "strings": "SS",
	"at": "AT", "avl": "AT",
	"bt": "BT", "btree": "BT",
	"rt": "RT", "rbtree": "RT",
	"vt": "VT", "vstore": "VT", "vtree": "VT",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("crashtest: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("crashtest", flag.ExitOnError)
	var (
		structuresF = fs.String("structures", "", "comma-separated structures (default: all); aliases like list,hash,avl work")
		variantF    = fs.String("variant", "Log+P+Sf", "software variant (Log, Log+P, Log+P+Sf)")
		seed        = fs.Int64("seed", 1, "campaign seed")
		warmup      = fs.Int("warmup", 60, "warmup operations before the probed ops")
		ops         = fs.Int("ops", 3, "operations probed per structure")
		exhaustive  = fs.Bool("exhaustive", false, "enumerate every crash point (counting pass first)")
		trials      = fs.Int("trials", 200, "randomized-mode trials per structure")
		torn        = fs.Bool("torn", false, "tear lines at 8-byte chunks in sampled trials")
		recrash     = fs.Bool("recrash", false, "re-crash at every persistence event inside recovery")
		samples     = fs.Int("samples", 1, "randomized fate sets per crash point besides the strict crash")
		workers     = fs.Int("workers", 0, "worker pool size (0 = one per CPU)")
		maxViol     = fs.Int("max-violations", 3, "violation details kept per structure")
		jsonOut     = fs.Bool("json", false, "emit the machine-readable report as JSON on stdout")
		replayFile  = fs.String("replay", "", "replay one plan from a JSON reproducer file and exit")
		spdiff      = fs.Bool("spdiff", false, "run the SP rollback differential instead of a crash campaign")
		probeMode   = fs.String("probe", "forced", "spdiff probe source: forced (harness-injected) or real (2-core adversary via internal/multicore)")
		expectViol  = fs.Bool("expect-violations", false, "negative control: exit nonzero unless violations are found")
		unsafeFlip  = fs.Bool("vstore-unsafe-flip", false, "negative control for structure VT: commit flips the root selector before the changeset flush behind one shared barrier")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *replayFile != "" {
		return replay(w, *replayFile, *jsonOut, *expectViol)
	}

	structures, err := parseStructures(*structuresF)
	if err != nil {
		return err
	}

	if *spdiff {
		return runSPDiff(w, structures, *probeMode, *seed, *warmup, *ops)
	}

	v, err := core.ParseVariant(*variantF)
	if err != nil || !v.Transactional() {
		return fmt.Errorf("variant must be Log, Log+P or Log+P+Sf")
	}

	eng := &fault.Engine{
		Workers:       *workers,
		Samples:       *samples,
		Torn:          *torn,
		Recrash:       *recrash,
		Shrink:        true,
		MaxViolations: *maxViol,
	}
	reg := obs.NewRegistry()
	eng.Register(reg)

	rep, err := eng.Run(fault.Campaign{
		Structures:       structures,
		Variant:          v,
		Seed:             *seed,
		Warmup:           *warmup,
		Ops:              *ops,
		Exhaustive:       *exhaustive,
		Trials:           *trials,
		VstoreUnsafeFlip: *unsafeFlip,
	})
	if err != nil {
		return err
	}

	if *jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		printReport(w, rep)
	}

	// A campaign under an unfenced variant is expected to find violations,
	// so only the fully fenced variant fails on them.
	switch {
	case *expectViol && rep.Violations == 0:
		return fmt.Errorf("FAIL: expected violations under %s but found none (the checker may be blind)", v)
	case !*expectViol && rep.Violations > 0 && v == core.VariantLogPSf:
		return fmt.Errorf("FAIL: %d violations under the fully fenced variant", rep.Violations)
	}
	return nil
}

func parseStructures(csv string) ([]string, error) {
	if csv == "" {
		return nil, nil // engine defaults to pstruct.Names()
	}
	known := make(map[string]bool)
	for _, n := range pstruct.AllNames() {
		known[n] = true
	}
	var out []string
	for _, tok := range strings.Split(csv, ",") {
		name := strings.TrimSpace(tok)
		if name == "" {
			continue
		}
		if canon, ok := aliases[strings.ToLower(name)]; ok {
			name = canon
		} else {
			name = strings.ToUpper(name)
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown structure %q (have %s)", tok, strings.Join(pstruct.AllNames(), ","))
		}
		out = append(out, name)
	}
	return out, nil
}

// replay re-runs one reproducer plan. Its exit contract is the one every
// campaign CLI shares: a violation fails the run, unless expectViol marks
// the plan as a negative control, which then fails without one.
func replay(w io.Writer, path string, jsonOut, expectViol bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var p fault.Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("parsing %s: %v", path, err)
	}
	out, err := fault.Run(p)
	if err != nil {
		return err
	}
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "%s %s op=%d crash=%d: crashed=%v events=%d recovery_events=%d torn=%d\n",
			p.Structure, p.Variant, p.Op, p.CrashIndex,
			out.Crashed, out.Events, out.RecoveryEvents, out.TornLines)
		if out.Failed() {
			fmt.Fprintf(w, "VIOLATION: %s\n", out.Violation)
		} else {
			fmt.Fprintln(w, "recovered atomically")
		}
	}
	switch {
	case expectViol && !out.Failed():
		return fmt.Errorf("FAIL: expected the replayed plan to violate, but it recovered atomically")
	case !expectViol && out.Failed():
		return fmt.Errorf("FAIL: replayed plan violates: %s", out.Violation)
	}
	return nil
}

func runSPDiff(w io.Writer, structures []string, probeMode string, seed int64, warmup, ops int) error {
	diff := fault.SPDifferential
	switch probeMode {
	case "forced":
	case "real":
		diff = fault.SPDifferentialReal
	default:
		return fmt.Errorf("-probe must be forced or real, got %q", probeMode)
	}
	if len(structures) == 0 {
		structures = pstruct.Names()
	}
	failed := 0
	for _, s := range structures {
		if err := diff(s, seed, warmup, ops); err != nil {
			fmt.Fprintf(w, "%-3s SP differential (%s probe): FAIL: %v\n", s, probeMode, err)
			failed++
		} else {
			fmt.Fprintf(w, "%-3s SP differential (%s probe): OK (rollback stream matches non-speculative machine)\n", s, probeMode)
		}
	}
	if failed > 0 {
		return fmt.Errorf("FAIL: %d structures diverged after speculative rollback", failed)
	}
	return nil
}

func printReport(w io.Writer, rep fault.Report) {
	mode := "randomized"
	if rep.Exhaustive {
		mode = "exhaustive"
	}
	for _, sr := range rep.Structures {
		status := "OK"
		if sr.Violations > 0 {
			status = fmt.Sprintf("%d ATOMICITY VIOLATIONS", sr.Violations)
		}
		extra := ""
		if sr.RecrashTrials > 0 {
			extra = fmt.Sprintf(" (+%d re-crash)", sr.RecrashTrials)
		}
		fmt.Fprintf(w, "%-3s %-9s %5d trials%s %5d crashes %4d torn lines: %s\n",
			sr.Structure, rep.Variant, sr.Trials, extra, sr.Crashes, sr.TornLines, status)
		for _, d := range sr.Details {
			plan := d.Plan
			if d.Shrunk != nil {
				plan = *d.Shrunk
			}
			data, _ := json.Marshal(plan)
			det := "deterministic"
			if !d.Deterministic {
				det = "NOT deterministic"
			}
			fmt.Fprintf(w, "    violation (%s, shrunk in %d steps): %s\n    reproducer: %s\n",
				det, d.ShrinkSteps, d.Violation, data)
		}
	}
	if rep.Violations > 0 {
		fmt.Fprintf(w, "\n%d violations under %s (%s mode)", rep.Violations, rep.Variant, mode)
		if rep.Variant != core.VariantLogPSf.String() {
			fmt.Fprintf(w, " — this is the paper's point: only Log+P+Sf orders persists correctly")
		}
		fmt.Fprintln(w)
	} else {
		fmt.Fprintf(w, "\nall structures recovered atomically from every injected crash (%s, %s, %d trials)\n",
			rep.Variant, mode, rep.Trials)
	}
}
