// Command litmus runs persistency litmus-test campaigns: the curated
// corpus plus seeded generated programs, each checked three ways — the
// standalone Px86-with-persist-buffers reference interpreter enumerates
// the complete allowed crash-visible outcome set, the real simulator runs
// the program plain and with SP speculation (including forced
// coherence-probe rollbacks and NACK windows mid-speculation), and every
// observed outcome must be reference-allowed with the SP machine
// indistinguishable from the plain one.
//
// Usage:
//
//	litmus -programs 5000                    # campaign; exit 1 on any violation
//	litmus -programs 500 -workers 8 -json    # machine-readable summary
//	litmus -weaken-ref -expect-violations    # CI negative control
//	litmus -replay minimal.json              # re-check one shrunk reproducer
//
// When a campaign finds violations, the first violating program is
// delta-minimized (fault.DDMinList over its ops) and written to -out as a
// replayable JSON reproducer.
//
// -weaken-ref swaps in the deliberately broken reference semantics (the
// sfence→pcommit ordering edge dropped); the curated corpus's
// hand-derived golden files must then catch it. -expect-violations flips
// the exit-status contract: the run fails unless at least one violation
// is found — proof the harness has teeth. A campaign flag on a -replay run
// is an error, not ignored.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"specpersist/internal/cli"
	"specpersist/internal/litmus"
)

type options struct {
	programs  int
	seed      int64
	workers   int
	curated   bool
	maxStates int

	weakenRef        bool
	expectViolations bool
	shrinkBudget     int
	out              string
	replay           string
	jsonOut          bool
}

// The run modes: a campaign, or the re-check of one reproducer.
const (
	campaignMode cli.Mode = 1 << iota
	replayMode
)

// jsonDoc is the -json document: the campaign summary (or the single
// replayed reproducer's verdict) plus the minimized reproducer when one
// was found.
type jsonDoc struct {
	Campaign *litmus.CampaignResult `json:"campaign,omitempty"`
	Replay   *replayDoc             `json:"replay,omitempty"`
	Minimal  *litmus.Reproducer     `json:"minimal,omitempty"`
	Shrinks  int                    `json:"shrink_calls,omitempty"`
}

type replayDoc struct {
	Reproduced bool               `json:"reproduced"`
	Violations []litmus.Violation `json:"violations,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("litmus: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := cli.NewSet("litmus", "campaign", "-replay")
	var o options
	both := campaignMode | replayMode
	fs.Int(&o.programs, "programs", 200, campaignMode, "generated programs in the campaign (on top of the curated corpus)").Min(0)
	fs.Int64(&o.seed, "seed", 1, campaignMode, "campaign seed (drives every generated program)")
	fs.Int(&o.workers, "workers", 0, campaignMode, "worker pool size (0 = GOMAXPROCS; never changes the results)").Min(0)
	fs.Bool(&o.curated, "curated", true, campaignMode, "include the curated corpus and its golden-file checks")
	fs.Int(&o.maxStates, "max-states", 0, both, "state budget per explorer (0 = default)").Min(0)
	fs.Bool(&o.weakenRef, "weaken-ref", false, campaignMode, "negative control: drop the reference's sfence→pcommit edge so the goldens have something to catch")
	fs.Bool(&o.expectViolations, "expect-violations", false, both, "exit non-zero unless at least one violation is found")
	fs.Int(&o.shrinkBudget, "shrink-budget", 0, campaignMode, "predicate calls the shrinker may spend on a violating program (0 = default)").Min(0)
	fs.String(&o.out, "out", "", campaignMode, "write the minimized violating program JSON here")
	fs.String(&o.replay, "replay", "", replayMode, "re-check one reproducer JSON file instead of running a campaign")
	fs.Bool(&o.jsonOut, "json", false, both, "emit the summary as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.replay != "" {
		if err := fs.Check(replayMode); err != nil {
			return err
		}
		return runReplay(o, w)
	}
	if err := fs.Check(campaignMode); err != nil {
		return err
	}
	return runCampaign(o, w)
}

func runCampaign(o options, w io.Writer) error {
	res, err := litmus.Campaign(litmus.CampaignConfig{
		Curated:   o.curated,
		Programs:  o.programs,
		Seed:      o.seed,
		Workers:   o.workers,
		Weaken:    o.weakenRef,
		MaxStates: o.maxStates,
	})
	if err != nil {
		return err
	}

	doc := jsonDoc{Campaign: &res}
	if len(res.BadTrials) > 0 {
		first := res.BadTrials[0]
		p, err := litmus.TrialProgram(res.Config, first)
		if err != nil {
			return err
		}
		rep, calls := litmus.ShrinkViolation(p, res.Trials[first].Violations[0], o.weakenRef, o.shrinkBudget, o.maxStates)
		doc.Minimal = &rep
		doc.Shrinks = calls
		if o.out != "" {
			if err := cli.WriteJSONFile(o.out, rep); err != nil {
				return err
			}
		}
	}

	if o.jsonOut {
		if err := cli.WriteJSON(w, doc); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "campaign             %d curated + %d generated programs, seed %d, %s reference\n",
			res.Curated, res.Generated, o.seed, refName(o.weakenRef))
		fmt.Fprintf(w, "machine runs         %d (plain, sp, forced-rollback and NACK-window modes)\n", res.ModeRuns)
		fmt.Fprintf(w, "outcomes             %d allowed by the reference, %d observed on the machine\n", res.Allowed, res.Observed)
		fmt.Fprintf(w, "speculation          %d rollbacks (%d forced by injected probes), %d probes NACK-deferred\n",
			res.Rollbacks, res.ForcedRollbacks, res.NackDeferred)
		if res.Capped > 0 {
			fmt.Fprintf(w, "capped               %d programs exceeded the state budget and were skipped\n", res.Capped)
		}
		fmt.Fprintf(w, "violations           %d in %d of %d programs\n", res.Violations, len(res.BadTrials), len(res.Trials))
		if doc.Minimal != nil {
			tr := res.Trials[res.BadTrials[0]]
			fmt.Fprintf(w, "first bad program    %s: %s\n", tr.Name, tr.Violations[0])
			fmt.Fprintf(w, "minimized            %d predicate calls", doc.Shrinks)
			if o.out != "" {
				fmt.Fprintf(w, ", reproducer written to %s", o.out)
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, "minimal program      ")
			if err := cli.WriteJSON(w, doc.Minimal); err != nil {
				return err
			}
		}
	}
	return cli.Exit(o.expectViolations, res.Violations)
}

func runReplay(o options, w io.Writer) error {
	var rep litmus.Reproducer
	if err := cli.ReadJSON("replay", o.replay, &rep, func() error { return rep.Program.Validate() }); err != nil {
		return err
	}
	ok, vs, err := rep.Replay(o.maxStates)
	if err != nil {
		return err
	}
	if o.jsonOut {
		if err := cli.WriteJSON(w, jsonDoc{Replay: &replayDoc{Reproduced: ok, Violations: vs}}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "replay               %s (%s)\n", o.replay, rep.Kind)
		if ok {
			fmt.Fprintf(w, "reproduced           yes\n")
			for _, v := range vs {
				fmt.Fprintf(w, "  VIOLATION          %s\n", v)
			}
		} else {
			fmt.Fprintf(w, "reproduced           no\n")
		}
	}
	violations := 0
	if ok {
		violations = max(len(vs), 1)
	}
	return cli.Exit(o.expectViolations, violations)
}

func refName(weakened bool) string {
	if weakened {
		return "weakened"
	}
	return "strict"
}
