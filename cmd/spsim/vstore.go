// The -vstore mode: run the storage-server simulation over the versioned
// copy-on-write tree store ("VT") and print its changeset-commit
// accounting next to the usual tail-latency output. The mode shares the
// -service arrival/batching dials but forces the structure, so -bench and
// the WAL-only -log-cap do not apply to it.
package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"specpersist/internal/cli"
	"specpersist/internal/service"
)

// vstoreConfig assembles the serving configuration with the structure
// pinned to the versioned store.
func vstoreConfig(o options) (service.Config, error) {
	o.Bench = "VT"
	return servingConfig(o)
}

// vstoreCounters sums the per-shard vstore.* counters out of a result's
// metrics map (keys are "coreN."-prefixed) and returns them keyed by the
// bare counter name.
func vstoreCounters(metrics map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range metrics {
		if i := strings.Index(k, "vstore."); i >= 0 {
			out[k[i+len("vstore."):]] += v
		}
	}
	return out
}

// runVstore executes one -vstore simulation and prints the result.
func runVstore(w io.Writer, o options) error {
	cfg, err := vstoreConfig(o)
	if err != nil {
		return err
	}
	res, err := service.Run(cfg)
	if err != nil {
		return err
	}
	if o.JSON {
		return cli.WriteJSON(w, res)
	}
	st := res.Stats
	vc := vstoreCounters(res.Metrics)
	fmt.Fprintf(w, "vstore               %s on VT (versioned COW tree), %d shard(s)\n", res.Variant, res.Config.Cores)
	fmt.Fprintf(w, "arrivals             %s, %.0f req/Mcycle offered\n", res.Config.Process, res.Config.Rate)
	fmt.Fprintf(w, "offered/completed    %d / %d (dropped %d)\n", st.Offered, st.Completed, st.Dropped)
	fmt.Fprintf(w, "goodput              %.1f req/Mcycle over %d cycles\n", res.Throughput, st.SpanCycles)
	fmt.Fprintf(w, "latency p50/p95      %d / %d cycles\n", res.P50, res.P95)
	fmt.Fprintf(w, "latency p99/p99.9    %d / %d cycles (mean %.0f, max %d)\n", res.P99, res.P999, res.Mean, res.Hist.Max)
	fmt.Fprintf(w, "group commit         K=%d: %d runs, %d commit groups\n", res.Config.BatchMax, st.Runs, st.Batches)
	fmt.Fprintf(w, "changeset commits    %d commits (%d empty), %d versions minted, %d barriers\n",
		vc["commits"], vc["empty_commits"], vc["versions"], vc["barriers"])
	fmt.Fprintf(w, "changeset volume     %d COW nodes written, %d changeset lines flushed\n",
		vc["nodes_written"], vc["changeset_lines"])
	fmt.Fprintf(w, "time-travel reads    %d gets served from the committed root\n", vc["time_travel_gets"])
	fmt.Fprintf(w, "persist barriers     %d pcommits issued in the serving phase\n", st.Pcommits)
	fmt.Fprintf(w, "queue                max depth %d, time-avg %.2f\n", st.MaxQueueDepth, res.AvgQueueDepth)
	// Keep the summed-counter view stable for scripted diffing.
	keys := make([]string, 0, len(vc))
	for k := range vc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "vstore.%-24s %d\n", k, vc[k])
	}
	return nil
}
