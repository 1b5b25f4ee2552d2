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
// is found — proof the harness has teeth.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

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

func run(args []string, w *os.File) error {
	fs := flag.NewFlagSet("litmus", flag.ExitOnError)
	var o options
	fs.IntVar(&o.programs, "programs", 200, "generated programs in the campaign (on top of the curated corpus)")
	fs.Int64Var(&o.seed, "seed", 1, "campaign seed (drives every generated program)")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS; never changes the results)")
	fs.BoolVar(&o.curated, "curated", true, "include the curated corpus and its golden-file checks")
	fs.IntVar(&o.maxStates, "max-states", 0, "state budget per explorer (0 = default)")
	fs.BoolVar(&o.weakenRef, "weaken-ref", false, "negative control: drop the reference's sfence→pcommit edge so the goldens have something to catch")
	fs.BoolVar(&o.expectViolations, "expect-violations", false, "exit non-zero unless at least one violation is found")
	fs.IntVar(&o.shrinkBudget, "shrink-budget", 0, "predicate calls the shrinker may spend on a violating program (0 = default)")
	fs.StringVar(&o.out, "out", "", "write the minimized violating program JSON here")
	fs.StringVar(&o.replay, "replay", "", "re-check one reproducer JSON file instead of running a campaign")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the summary as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"programs", o.programs}, {"workers", o.workers}, {"max-states", o.maxStates}, {"shrink-budget", o.shrinkBudget}} {
		if f.v < 0 {
			return fmt.Errorf("-%s must be non-negative, got %d", f.name, f.v)
		}
	}
	if o.replay != "" {
		return runReplay(o, w)
	}
	return runCampaign(o, w)
}

func runCampaign(o options, w *os.File) error {
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
			blob, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
		}
	}

	if o.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
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
			blob, _ := json.MarshalIndent(doc.Minimal, "", "  ")
			fmt.Fprintf(w, "minimal program      %s\n", blob)
		}
	}
	return exitContract(o, res.Violations)
}

func runReplay(o options, w *os.File) error {
	blob, err := os.ReadFile(o.replay)
	if err != nil {
		return err
	}
	var rep litmus.Reproducer
	if err := json.Unmarshal(blob, &rep); err != nil {
		return fmt.Errorf("-replay %s: %w", o.replay, err)
	}
	if err := rep.Program.Validate(); err != nil {
		return fmt.Errorf("-replay %s: %w", o.replay, err)
	}
	ok, vs, err := rep.Replay(o.maxStates)
	if err != nil {
		return err
	}
	if o.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc{Replay: &replayDoc{Reproduced: ok, Violations: vs}}); err != nil {
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
		violations = len(vs)
		if violations == 0 {
			violations = 1
		}
	}
	return exitContract(o, violations)
}

func refName(weakened bool) string {
	if weakened {
		return "weakened"
	}
	return "strict"
}

// exitContract maps the violation count onto the exit status: campaigns
// fail on violations, negative controls fail without them.
func exitContract(o options, violations int) error {
	if o.expectViolations {
		if violations == 0 {
			return fmt.Errorf("expected violations, found none (is the harness alive?)")
		}
		return nil
	}
	if violations > 0 {
		return fmt.Errorf("%d contract violations found", violations)
	}
	return nil
}
