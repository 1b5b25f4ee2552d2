// The -service mode: run one storage-server simulation (open-loop
// arrivals, bounded FIFO, optional group commit) and print its tail-latency
// accounting. Bad values reach the user as errors and a non-zero exit, not
// as a misconfigured silent run.
package main

import (
	"fmt"
	"io"
	"strings"

	"specpersist/internal/cli"
	"specpersist/internal/core"
	"specpersist/internal/obs"
	"specpersist/internal/service"
)

// serving is the one request-side value the -service and -cluster modes
// start from: the knobs bound straight into o.Serving plus those the
// other modes share or that need a conversion, and the -timeline ring.
func serving(o options) (service.Serving, error) {
	v, err := core.ParseVariant(o.Variant)
	if err != nil {
		return service.Serving{}, err
	}
	s := o.Serving
	s.Structure, s.Variant, s.Seed = o.Bench, v, o.Seed
	s.SSBEntries, s.OpOverhead = o.SSB, o.Overhead
	s.BatchDeadline = uint64(o.Deadline)
	s.Timeline = newTimeline(o)
	return s, nil
}

// servingConfig assembles and validates the -service storage-server
// configuration.
func servingConfig(o options) (service.Config, error) {
	s, err := serving(o)
	if err != nil {
		return service.Config{}, err
	}
	cfg := service.Config{
		Serving:     s,
		Cores:       o.Cores,
		Process:     service.Process(o.Process),
		BurstOnFrac: o.BurstFrac,
		BurstPeriod: uint64(o.BurstPeriod),
	}
	if err := cfg.Validate(); err != nil {
		return service.Config{}, err
	}
	return cfg, nil
}

// runService executes one -service simulation and prints the result.
func runService(w io.Writer, o options) error {
	cfg, err := servingConfig(o)
	if err != nil {
		return err
	}
	res, err := service.Run(cfg)
	if err != nil {
		return err
	}
	if err := writeTimeline(o, cfg.Timeline); err != nil {
		return err
	}
	if o.JSON {
		return cli.WriteJSON(w, res)
	}
	st := res.Stats
	fmt.Fprintf(w, "service              %s on %s, %d shard(s)\n", res.Variant, res.Config.Structure, res.Config.Cores)
	fmt.Fprintf(w, "arrivals             %s, %.0f req/Mcycle offered\n", res.Config.Process, res.Config.Rate)
	fmt.Fprintf(w, "offered/completed    %d / %d (dropped %d)\n", st.Offered, st.Completed, st.Dropped)
	fmt.Fprintf(w, "goodput              %.1f req/Mcycle over %d cycles\n", res.Throughput, st.SpanCycles)
	fmt.Fprintf(w, "latency p50/p95      %d / %d cycles\n", res.P50, res.P95)
	fmt.Fprintf(w, "latency p99/p99.9    %d / %d cycles (mean %.0f, max %d)\n", res.P99, res.P999, res.Mean, res.Hist.Max)
	fmt.Fprintf(w, "group commit         K=%d: %d runs, %d commit groups, %d grouped requests\n",
		res.Config.BatchMax, st.Runs, st.Batches, st.GroupedRequests)
	fmt.Fprintf(w, "persist barriers     %d pcommits issued, %d trios coalesced\n", st.Pcommits, st.CoalescedBarriers)
	writeChangesets(w, res.Config.Structure, res.Metrics)
	fmt.Fprintf(w, "queue                max depth %d, time-avg %.2f\n", st.MaxQueueDepth, res.AvgQueueDepth)
	return nil
}

// writeChangesets prints a VT run's changeset-commit accounting, summing
// the vstore.* counters of every core (and, in a fleet, every node) out
// of its metrics; other structures print nothing.
func writeChangesets(w io.Writer, structure string, metrics obs.Snapshot) {
	if structure != "VT" {
		return
	}
	vc := map[string]uint64{}
	for k, v := range metrics {
		if i := strings.Index(k, "vstore."); i >= 0 {
			vc[k[i+len("vstore."):]] += v
		}
	}
	fmt.Fprintf(w, "changeset commits    %d commits (%d empty), %d versions minted, %d barriers\n",
		vc["commits"], vc["empty_commits"], vc["versions"], vc["barriers"])
	fmt.Fprintf(w, "changeset volume     %d COW nodes written, %d changeset lines flushed\n",
		vc["nodes_written"], vc["changeset_lines"])
	fmt.Fprintf(w, "time-travel reads    %d gets served from the committed root\n", vc["time_travel_gets"])
}
