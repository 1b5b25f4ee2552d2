// The -service mode: run one storage-server simulation (open-loop
// arrivals, bounded FIFO, optional group commit) and print its tail-latency
// accounting. Bad values reach the user as errors and a non-zero exit, not
// as a misconfigured silent run.
package main

import (
	"fmt"
	"io"

	"specpersist/internal/cli"
	"specpersist/internal/core"
	"specpersist/internal/service"
)

// serving is the one request-side value the -service, -vstore and
// -cluster modes start from: the knobs bound straight into o.Serving plus
// those the other modes share or that need a conversion, and the
// -timeline ring.
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

// servingConfig assembles and validates the storage-server configuration
// the -service and -vstore modes share.
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
	fmt.Fprintf(w, "queue                max depth %d, time-avg %.2f\n", st.MaxQueueDepth, res.AvgQueueDepth)
	return nil
}
