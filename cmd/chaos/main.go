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
// at least one violation is found — proof the checker is alive. A campaign
// flag on a -replay run is an error, not ignored.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"specpersist/internal/cli"
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

// The run modes: a campaign, or the replay of one reproducer.
const (
	campaignMode cli.Mode = 1 << iota
	replayMode
)

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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	fs := cli.NewSet("chaos", "campaign", "-replay")
	var o options
	both := campaignMode | replayMode
	fs.Int(&o.trials, "trials", 200, campaignMode, "audited runs in the campaign").Min(1)
	fs.Int64(&o.seed, "seed", 1, campaignMode, "campaign seed (drives every trial's plan, crash schedule and workload)")
	fs.Int(&o.workers, "workers", 0, campaignMode, "worker pool size (0 = GOMAXPROCS; never changes the results)").Min(0)
	fs.Int(&o.nodes, "nodes", 0, campaignMode, "fleet size (0 = campaign default 3)").Min(0)
	fs.Int(&o.replicas, "replicas", 0, campaignMode, "replication factor R (0 = campaign default 2)").Min(0)
	fs.String(&o.structure, "bench", "", campaignMode, "structure under test (default HM)")
	fs.String(&o.variant, "variant", "", campaignMode, "persistence variant (default SP)")
	fs.Int(&o.requests, "requests", 0, campaignMode, "requests per trial (0 = campaign default)").Min(0)
	fs.Float64(&o.rate, "rate", 0, campaignMode, "offered load per trial in requests per Mcycle (0 = campaign default)")
	fs.Bool(&o.breakDedup, "break-dedup", false, campaignMode, "negative control: disable the duplicate gate so the auditor has something to catch")
	fs.Bool(&o.expectViolations, "expect-violations", false, both, "exit non-zero unless at least one violation is found")
	fs.Int(&o.shrinkBudget, "shrink-budget", 0, campaignMode, "replays the shrinker may spend on a violating trial (0 = default)").Min(0)
	fs.String(&o.out, "out", "", campaignMode, "write the minimized violating config JSON here")
	fs.String(&o.replay, "replay", "", replayMode, "replay one audited run from a config JSON file instead of a campaign")
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
	if o.rate != 0 {
		base.Rate = o.rate // Campaign validates it
	}
	base.BreakDedup = o.breakDedup
	return base, nil
}

func runCampaign(o options, w io.Writer) error {
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
			if err := cli.WriteJSONFile(o.out, min); err != nil {
				return err
			}
		}
	}

	if o.jsonOut {
		if err := cli.WriteJSON(w, doc); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "campaign             %d trials, seed %d, %s on %s, %d nodes R=%d\n",
			o.trials, o.seed, base.Variant, base.Structure, base.Nodes, base.Replicas)
		fmt.Fprintf(w, "requests             %d completed / %d offered across all trials\n",
			res.Completed, res.Offered)
		fmt.Fprintf(w, "tail latency         worst per-trial p99 %d cycles\n", res.P99Max)
		fmt.Fprintf(w, "violations           %d in %d of %d trials\n", res.Violations, len(res.BadTrials), len(res.Trials))
		if doc.Minimal != nil {
			fmt.Fprintf(w, "first bad trial      %d (minimized in %d replays", res.BadTrials[0], doc.Shrinks)
			if o.out != "" {
				fmt.Fprintf(w, ", reproducer written to %s", o.out)
			}
			fmt.Fprintln(w, ")")
			fmt.Fprint(w, "minimal plan         ")
			if err := cli.WriteJSON(w, doc.Minimal.Chaos); err != nil {
				return err
			}
		}
	}
	return cli.Exit(o.expectViolations, res.Violations)
}

func runReplay(o options, w io.Writer) error {
	var cfg cluster.Config
	if err := cli.ReadJSON("replay", o.replay, &cfg, func() error { return cfg.Validate() }); err != nil {
		return err
	}
	res, err := cluster.RunAudited(cfg)
	if err != nil {
		return err
	}
	if o.jsonOut {
		if err := cli.WriteJSON(w, jsonDoc{Replay: &res}); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(w, "replay               %s: %d completed / %d offered\n",
			o.replay, res.Stats.Completed, res.Stats.Offered)
		fmt.Fprintf(w, "audit                %d acked updates checked, %d violations\n",
			res.Audit.Checked, res.Audit.Total)
		for _, v := range res.Audit.Violations {
			fmt.Fprintf(w, "  VIOLATION          %s\n", v)
		}
	}
	return cli.Exit(o.expectViolations, res.Audit.Total)
}
