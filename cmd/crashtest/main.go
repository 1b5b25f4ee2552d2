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
//
// A flag the run's mode (campaign, -replay or -spdiff) does not read is an
// error, not ignored.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"specpersist/internal/cli"
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

// options holds every crashtest flag; the campaign's own dials are bound
// into its fault.Campaign.
type options struct {
	structures, variant string
	campaign            fault.Campaign
	torn, recrash       bool
	samples, workers    int
	maxViolations       int
	jsonOut             bool
	replay              string
	spdiff              bool
	probe               string
	expectViolations    bool
}

// The run modes: a crash campaign, the replay of one reproducer plan, or
// the SP rollback differential.
const (
	campaignMode cli.Mode = 1 << iota
	replayMode
	spdiffMode
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("crashtest: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := cli.NewSet("crashtest", "campaign", "-replay", "-spdiff")
	var o options
	probed := campaignMode | spdiffMode
	reported := campaignMode | replayMode
	fs.String(&o.structures, "structures", "", probed, "comma-separated structures (default: all); aliases like list,hash,avl work")
	fs.String(&o.variant, "variant", "Log+P+Sf", campaignMode, "software variant (Log, Log+P, Log+P+Sf)")
	fs.Int64(&o.campaign.Seed, "seed", 1, probed, "campaign seed")
	fs.Int(&o.campaign.Warmup, "warmup", 60, probed, "warmup operations before the probed ops").Min(0)
	fs.Int(&o.campaign.Ops, "ops", 3, probed, "operations probed per structure").Min(0)
	fs.Bool(&o.campaign.Exhaustive, "exhaustive", false, campaignMode, "enumerate every crash point (counting pass first)")
	fs.Int(&o.campaign.Trials, "trials", 200, campaignMode, "randomized-mode trials per structure").Min(0)
	fs.Bool(&o.torn, "torn", false, campaignMode, "tear lines at 8-byte chunks in sampled trials")
	fs.Bool(&o.recrash, "recrash", false, campaignMode, "re-crash at every persistence event inside recovery")
	fs.Int(&o.samples, "samples", 1, campaignMode, "randomized fate sets per crash point besides the strict crash").Min(0)
	fs.Int(&o.workers, "workers", 0, campaignMode, "worker pool size (0 = one per CPU)").Min(0)
	fs.Int(&o.maxViolations, "max-violations", 3, campaignMode, "violation details kept per structure").Min(0)
	fs.Bool(&o.jsonOut, "json", false, reported, "emit the machine-readable report as JSON on stdout")
	fs.String(&o.replay, "replay", "", replayMode, "replay one plan from a JSON reproducer file and exit")
	fs.Bool(&o.spdiff, "spdiff", false, spdiffMode, "run the SP rollback differential instead of a crash campaign")
	fs.String(&o.probe, "probe", "forced", spdiffMode, "spdiff probe source: forced (harness-injected) or real (2-core adversary via internal/multicore)")
	fs.Bool(&o.expectViolations, "expect-violations", false, reported, "negative control: exit nonzero unless violations are found")
	fs.Bool(&o.campaign.VstoreUnsafeFlip, "vstore-unsafe-flip", false, campaignMode, "negative control for structure VT: commit flips the root selector before the changeset flush behind one shared barrier")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode := campaignMode
	switch {
	case o.replay != "":
		mode = replayMode
	case o.spdiff:
		mode = spdiffMode
	}
	err := fs.Check(mode)
	if err != nil {
		return err
	}
	if mode == replayMode {
		return replay(w, o)
	}

	c := o.campaign
	c.Structures, err = parseStructures(o.structures)
	if err != nil {
		return err
	}

	if mode == spdiffMode {
		return runSPDiff(w, c.Structures, o.probe, c.Seed, c.Warmup, c.Ops)
	}

	c.Variant, err = core.ParseVariant(o.variant)
	if err != nil || !c.Variant.Transactional() {
		return fmt.Errorf("variant must be Log, Log+P or Log+P+Sf")
	}

	eng := &fault.Engine{
		Workers:       o.workers,
		Samples:       o.samples,
		Torn:          o.torn,
		Recrash:       o.recrash,
		Shrink:        true,
		MaxViolations: o.maxViolations,
	}
	reg := obs.NewRegistry()
	eng.Register(reg)

	rep, err := eng.Run(c)
	if err != nil {
		return err
	}

	if o.jsonOut {
		if err := cli.WriteJSON(w, rep); err != nil {
			return err
		}
	} else {
		printReport(w, rep)
	}

	// A campaign under an unfenced variant is expected to find violations,
	// so without -expect-violations only the fully fenced variant fails on
	// them.
	if !o.expectViolations && c.Variant != core.VariantLogPSf {
		return nil
	}
	return cli.Exit(o.expectViolations, rep.Violations)
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

// replay re-runs one reproducer plan under the campaign exit contract.
func replay(w io.Writer, o options) error {
	var p fault.Plan
	if err := cli.ReadJSON("replay", o.replay, &p, nil); err != nil {
		return err
	}
	out, err := fault.Run(p)
	if err != nil {
		return err
	}
	if o.jsonOut {
		if err := cli.WriteJSON(w, out); err != nil {
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
	violations := 0
	if out.Failed() {
		violations = 1
	}
	return cli.Exit(o.expectViolations, violations)
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
