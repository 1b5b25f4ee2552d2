// The -cluster mode: run one replicated-fleet simulation (consistent-hash
// sharding, quorum-gated durability, crash/failover/rejoin) and print its
// accounting. Every invalid value reaches the user as an error and a
// non-zero exit rather than a silently misconfigured run.
package main

import (
	"fmt"
	"io"

	"specpersist/internal/chaos"
	"specpersist/internal/cli"
	"specpersist/internal/cluster"
)

// buildClusterConfig assembles and validates the fleet configuration.
func buildClusterConfig(o options) (cluster.Config, error) {
	s, err := serving(o)
	if err != nil {
		return cluster.Config{}, err
	}
	if o.HedgeQuantile < 0 || o.HedgeQuantile >= 1 {
		return cluster.Config{}, fmt.Errorf("-hedge-quantile must be in [0, 1), got %g", o.HedgeQuantile)
	}
	plan, err := chaosPlanFromOptions(o)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.DefaultConfig()
	cfg.Serving = s
	cfg.Nodes = o.Nodes
	cfg.Replicas = o.Replicas
	cfg.Quorum = o.Quorum
	cfg.VNodes = o.VNodes
	cfg.ZipfS = o.Zipf
	if o.NetRTT > 0 {
		cfg.NetRTT = uint64(o.NetRTT)
	}
	cfg.NetJitter = o.NetJitter
	if o.CatchupBatch != 0 {
		cfg.CatchupBatch = o.CatchupBatch
	}
	cfg.CrashAt = uint64(o.CrashAt)
	cfg.CrashNode = o.CrashNode
	cfg.RecoverAfter = uint64(o.RecoverAfter)
	cfg.RebalanceEvery = uint64(o.RebalanceEvery)
	cfg.Chaos = plan
	cfg.ReqDeadline = uint64(o.ReqDeadline)
	cfg.RetryMax = o.RetryMax
	cfg.HedgeQuantile = o.HedgeQuantile
	cfg.ShedHighWater = o.ShedHighWater
	cfg.HeartbeatEvery = uint64(o.HeartbeatEvery)
	cfg.LeaseCycles = uint64(o.LeaseCycles)
	if err := cfg.Validate(); err != nil {
		return cluster.Config{}, err
	}
	return cfg, nil
}

// chaosPlanFromOptions resolves the chaos flags into a plan: a plan file
// replays verbatim (the shrinker's minimal reproducers), the inline dials
// assemble one ad hoc, and setting both is an error.
func chaosPlanFromOptions(o options) (*chaos.Plan, error) {
	if o.ChaosPlanFile != "" {
		if len(o.InlineChaos) > 0 {
			return nil, fmt.Errorf("-chaos-plan is a complete plan; flags %v clash with it", o.InlineChaos)
		}
		var p chaos.Plan
		if err := cli.ReadJSON("chaos-plan", o.ChaosPlanFile, &p, p.Validate); err != nil {
			return nil, err
		}
		return &p, nil
	}
	if len(o.InlineChaos) == 0 {
		return nil, nil
	}
	p := o.Chaos
	if p.Delay > 0 && p.DelayMult == 0 {
		p.DelayMult = 10
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// runCluster executes one -cluster simulation and prints the result.
func runCluster(w io.Writer, o options) error {
	cfg, err := buildClusterConfig(o)
	if err != nil {
		return err
	}
	runOne := cluster.Run
	if o.Audit {
		runOne = cluster.RunAudited
	}
	res, err := runOne(cfg)
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
	fmt.Fprintf(w, "cluster              %d nodes, %s on %s, R=%d W=%d, %d ranges\n",
		res.Config.Nodes, res.Variant, res.Config.Structure, res.Config.Replicas,
		res.Config.Quorum, st.Ranges)
	fmt.Fprintf(w, "network              RTT %d cycles, jitter %.0f%%\n",
		res.Config.NetRTT, res.Config.NetJitter*100)
	fmt.Fprintf(w, "offered/completed    %d / %d (dropped %d, unavailable %d)\n",
		st.Offered, st.Completed, st.Dropped, st.Unavailable)
	fmt.Fprintf(w, "goodput              %.1f req/Mcycle over %d cycles\n", res.Throughput, st.SpanCycles)
	fmt.Fprintf(w, "latency p50/p95      %d / %d cycles (to the W-th durable ack)\n", res.P50, res.P95)
	fmt.Fprintf(w, "latency p99/p99.9    %d / %d cycles (mean %.0f, max %d)\n", res.P99, res.P999, res.Mean, res.Hist.Max)
	fmt.Fprintf(w, "replication          %d replicate msgs, %d acks, %d network msgs total\n",
		st.ReplMsgs, st.Acks, st.NetMsgs)
	fmt.Fprintf(w, "group commit         K=%d: %d commit groups\n", res.Config.BatchMax, st.Groups)
	writeChangesets(w, res.Config.Structure, res.Metrics)
	fmt.Fprintf(w, "faults               %d crashes, %d failovers, %d rejoins (%d repair ops fetched)\n",
		st.Crashes, st.Failovers, st.Rejoins, st.CatchupOps)
	fmt.Fprintf(w, "rebalancing          %d primaryship moves\n", st.Rebalances)
	if res.Config.Chaos.Enabled() {
		fmt.Fprintf(w, "chaos fabric         %d dropped, %d cut, %d dupped, %d delayed, %d reordered\n",
			st.NetChaosDropped, st.NetChaosCut, st.NetChaosDupped, st.NetChaosDelayed, st.NetChaosReordered)
	}
	fmt.Fprintf(w, "client robustness    %d shed, %d timed out, %d retries, %d hedges\n",
		st.Shed, st.TimedOut, st.Retries, st.Hedges)
	fmt.Fprintf(w, "failure detection    %d heartbeats, %d suspicions (%d wrong)\n",
		st.Heartbeats, st.Suspicions, st.WrongSuspicions)
	if res.Audit != nil {
		fmt.Fprintf(w, "audit                %d acked updates checked, %d violations\n",
			res.Audit.Checked, res.Audit.Total)
		for _, v := range res.Audit.Violations {
			fmt.Fprintf(w, "  VIOLATION          %s\n", v)
		}
	}
	for _, nd := range res.PerNode {
		rejoin := ""
		if nd.RejoinCycles > 0 {
			rejoin = fmt.Sprintf(", rejoined after %d cycles (%d streamed)", nd.RejoinCycles, nd.CatchupOps)
		}
		fmt.Fprintf(w, "node %-2d              %s, %d collected, %d acks, p99 %d%s\n",
			nd.Node, nd.State, nd.Collected, nd.Acks, nd.P99, rejoin)
	}
	return nil
}
