// Command chaos runs deterministic fault-injection campaigns against the
// replicated fleet: every trial is an audited cluster run under a
// generated chaos plan (drops, duplicates, delay spikes, reorders,
// partitions, gray nodes, crashes), and the end-of-run auditor proves no
// acknowledged update was lost, double-applied or reordered.
//
// Usage:
//
//	chaos -trials 2000                       # campaign; exit 1 on any violation
//	chaos -trials 100 -workers 8 -json       # machine-readable summary
//	chaos -trials 50 -break-dedup -expect-violations  # CI negative control
//	chaos -replay minimal.json               # re-run one shrunk reproducer
//
// When a campaign finds violations, the first violating trial's
// configuration is delta-minimized (fault.DDMinList over the plan's fate
// dials and windows) and written to -out as a replayable JSON reproducer.
//
// -expect-violations flips the exit-status contract: the run fails unless
// at least one violation is found — proof the checker is alive.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"specpersist/internal/cluster"
	"specpersist/internal/core"
)

type options struct {
	trials    int
	seed      int64
	workers   int
	nodes     int
	replicas  int
	structure string
	variant   string
	requests  int
	rate      float64

	breakDedup       bool
	expectViolations bool
	shrinkBudget     int
	out              string
	replay           string
	jsonOut          bool
}

// jsonDoc is the -json document: the campaign summary (or the single
// replayed trial) plus the minimized reproducer when one was found.
type jsonDoc struct {
	Campaign *cluster.CampaignResult `json:"campaign,omitempty"`
	Replay   *cluster.Result         `json:"replay,omitempty"`
	Minimal  *cluster.Config         `json:"minimal,omitempty"`
	Shrinks  int                     `json:"shrink_replays,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaos: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var o options
	fs.IntVar(&o.trials, "trials", 200, "audited runs in the campaign")
	fs.Int64Var(&o.seed, "seed", 1, "campaign seed (drives every trial's plan, crash schedule and workload)")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS; never changes the results)")
	fs.IntVar(&o.nodes, "nodes", 0, "fleet size (0 = campaign default 3)")
	fs.IntVar(&o.replicas, "replicas", 0, "replication factor R (0 = campaign default 2)")
	fs.StringVar(&o.structure, "bench", "", "structure under test (default HM)")
	fs.StringVar(&o.variant, "variant", "", "persistence variant (default SP)")
	fs.IntVar(&o.requests, "requests", 0, "requests per trial (0 = campaign default)")
	fs.Float64Var(&o.rate, "rate", 0, "offered load per trial in requests per Mcycle (0 = campaign default)")
	fs.BoolVar(&o.breakDedup, "break-dedup", false, "negative control: disable the duplicate gate so the auditor has something to catch")
	fs.BoolVar(&o.expectViolations, "expect-violations", false, "exit non-zero unless at least one violation is found")
	fs.IntVar(&o.shrinkBudget, "shrink-budget", 0, "replays the shrinker may spend on a violating trial (0 = default)")
	fs.StringVar(&o.out, "out", "", "write the minimized violating config JSON here")
	fs.StringVar(&o.replay, "replay", "", "replay one audited run from a config JSON file instead of a campaign")
	fs.BoolVar(&o.jsonOut, "json", false, "emit the summary as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.replay != "" {
		return runReplay(o)
	}
	return runCampaign(o)
}

// baseConfig assembles the per-trial base fleet from the flags.
func baseConfig(o options) (cluster.Config, error) {
	base := cluster.DefaultChaosBase()
	if o.nodes > 0 {
		base.Nodes = o.nodes
	}
	if o.replicas > 0 {
		base.Replicas = o.replicas
		base.Quorum = 0 // re-derive the majority for the new R
	}
	if o.structure != "" {
		base.Structure = o.structure
	}
	if o.variant != "" {
		v, err := core.ParseVariant(o.variant)
		if err != nil {
			return cluster.Config{}, err
		}
		base.Variant = v
	}
	if o.requests > 0 {
		base.Requests = o.requests
	}
	if o.rate > 0 {
		base.Rate = o.rate
	}
	base.BreakDedup = o.breakDedup
	return base, nil
}

func runCampaign(o options) error {
	if o.trials < 1 {
		return fmt.Errorf("-trials must be at least 1, got %d", o.trials)
	}
	base, err := baseConfig(o)
	if err != nil {
		return err
	}
	res, err := cluster.Campaign(cluster.CampaignConfig{
		Base: base, Trials: o.trials, Seed: o.seed, Workers: o.workers,
	})
	if err != nil {
		return err
	}

	doc := jsonDoc{Campaign: &res}
	if len(res.BadTrials) > 0 {
		cfg := cluster.TrialConfig(res.Config, res.BadTrials[0])
		min, steps := cluster.ShrinkChaosPlan(cfg, o.shrinkBudget)
		doc.Minimal = &min
		doc.Shrinks = steps
		if o.out != "" {
			blob, err := json.MarshalIndent(min, "", "  ")
			if err != nil {
				return err
			}
			if err := os.WriteFile(o.out, append(blob, '\n'), 0o644); err != nil {
				return err
			}
		}
	}

	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return err
		}
	} else {
		fmt.Printf("campaign             %d trials, seed %d, %s on %s, %d nodes R=%d\n",
			o.trials, o.seed, base.Variant, base.Structure, base.Nodes, base.Replicas)
		fmt.Printf("requests             %d completed / %d offered across all trials\n",
			res.Completed, res.Offered)
		fmt.Printf("tail latency         worst per-trial p99 %d cycles\n", res.P99Max)
		fmt.Printf("violations           %d in %d of %d trials\n", res.Violations, len(res.BadTrials), len(res.Trials))
		if doc.Minimal != nil {
			fmt.Printf("first bad trial      %d (minimized in %d replays", res.BadTrials[0], doc.Shrinks)
			if o.out != "" {
				fmt.Printf(", reproducer written to %s", o.out)
			}
			fmt.Println(")")
			blob, _ := json.MarshalIndent(doc.Minimal.Chaos, "", "  ")
			fmt.Printf("minimal plan         %s\n", blob)
		}
	}
	return exitContract(o, res.Violations)
}

func runReplay(o options) error {
	blob, err := os.ReadFile(o.replay)
	if err != nil {
		return err
	}
	var cfg cluster.Config
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return fmt.Errorf("-replay %s: %w", o.replay, err)
	}
	res, err := cluster.RunAudited(cfg)
	if err != nil {
		return err
	}
	if res.Audit == nil {
		return fmt.Errorf("replay produced no audit")
	}
	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonDoc{Replay: &res}); err != nil {
			return err
		}
	} else {
		fmt.Printf("replay               %s: %d completed / %d offered\n",
			o.replay, res.Stats.Completed, res.Stats.Offered)
		fmt.Printf("audit                %d acked updates checked, %d violations\n",
			res.Audit.Checked, res.Audit.Total)
		for _, v := range res.Audit.Violations {
			fmt.Printf("  VIOLATION          %s\n", v)
		}
	}
	return exitContract(o, res.Audit.Total)
}

// exitContract maps the violation count onto the exit status: campaigns
// fail on violations, negative controls fail without them.
func exitContract(o options, violations int) error {
	if o.expectViolations {
		if violations == 0 {
			return fmt.Errorf("expected violations, found none (is the checker alive?)")
		}
		return nil
	}
	if violations > 0 {
		return fmt.Errorf("%d invariant violations found", violations)
	}
	return nil
}
