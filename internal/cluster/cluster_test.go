package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"specpersist/internal/chaos"
	"specpersist/internal/core"
	"specpersist/internal/obs"
)

// quickConfig returns a small fleet that still exercises replication.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.Requests = 128
	cfg.Warmup = 48
	cfg.Rate = 200
	return cfg
}

// accounted reports whether every offered request has exactly one
// outcome: the identity loop enforces at the end of every run.
func accounted(st Stats) bool {
	return st.Completed+st.Dropped+st.Shed+st.TimedOut+st.Unavailable == st.Offered
}

func TestRunAccounting(t *testing.T) {
	res, err := Run(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Offered != uint64(128) {
		t.Fatalf("offered %d, want 128", st.Offered)
	}
	if !accounted(st) {
		t.Fatalf("accounting broken: %+v", st)
	}
	if st.Completed == 0 {
		t.Fatal("no requests completed")
	}
	if res.Hist.N != st.Completed {
		t.Fatalf("histogram holds %d samples, want %d completions", res.Hist.N, st.Completed)
	}
	if st.ReplMsgs == 0 {
		t.Fatal("R=2 fleet sent no replication messages")
	}
	if res.Throughput <= 0 || res.P99 == 0 {
		t.Fatalf("degenerate result: throughput %g p99 %d", res.Throughput, res.P99)
	}
	var collected uint64
	for _, n := range res.PerNode {
		collected += n.Collected
	}
	if collected != st.Completed {
		t.Fatalf("per-node collections %d != completed %d", collected, st.Completed)
	}
	if res.Metrics["cluster.completed"] != st.Completed {
		t.Fatalf("metrics snapshot disagrees: %d != %d", res.Metrics["cluster.completed"], st.Completed)
	}
}

// TestQuorumGatesLatency: waiting for a bigger write quorum can only push
// the update tail out — W=R must be at least as slow at the median as W=1,
// since the W-th ack includes more network and more persist barriers.
func TestQuorumGatesLatency(t *testing.T) {
	cfg := quickConfig()
	cfg.Replicas = 3
	cfg.GetFrac = 0 // updates only, so quorum is on every request's path
	cfg.Quorum = 1
	w1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Quorum = 3
	w3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w3.P50 < w1.P50 {
		t.Fatalf("W=3 median %d beat W=1 median %d", w3.P50, w1.P50)
	}
	// A full quorum waits for at least one network round trip (replicate
	// out, ack back) that W=1 at the primary never pays.
	if w3.P50 < w1.P50+cfg.NetRTT/2 {
		t.Fatalf("W=3 median %d does not reflect the replication RTT over W=1's %d", w3.P50, w1.P50)
	}
}

// TestGetsArePrimaryOnly: a read-only workload never replicates.
func TestGetsArePrimaryOnly(t *testing.T) {
	cfg := quickConfig()
	cfg.GetFrac = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReplMsgs != 0 {
		t.Fatalf("pure-get run sent %d replication messages", res.Stats.ReplMsgs)
	}
	if res.Stats.Completed != res.Stats.Offered {
		t.Fatalf("pure-get run: %d of %d completed", res.Stats.Completed, res.Stats.Offered)
	}
}

// TestCrashFailoverRecovery is the fault-campaign smoke: crash a replica
// mid-run under load heavy enough that commit groups are in flight, let it
// recover and catch up, and rely on Run's internal checkers — a quorum ack
// whose acker does not durably hold the group fails the run. Swept over
// several crash cycles so at least one lands mid-commit-group.
func TestCrashFailoverRecovery(t *testing.T) {
	sawCatchup := false
	for _, crashAt := range []uint64{120_000, 250_000, 400_000} {
		cfg := quickConfig()
		cfg.Requests = 256
		cfg.Rate = 400
		cfg.Replicas = 3
		cfg.Quorum = 2
		cfg.BatchMax = 4
		cfg.BatchDeadline = 4000
		cfg.CrashAt = crashAt
		cfg.CrashNode = 1
		cfg.RecoverAfter = 200_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("crash at %d: %v", crashAt, err)
		}
		st := res.Stats
		if st.Crashes != 1 || st.Rejoins != 1 {
			t.Fatalf("crash at %d: crashes %d rejoins %d, want 1/1", crashAt, st.Crashes, st.Rejoins)
		}
		nd := res.PerNode[1]
		if nd.State != "live" {
			t.Fatalf("crash at %d: node 1 ended %s, want live", crashAt, nd.State)
		}
		if nd.CatchupOps > 0 {
			sawCatchup = true
			if nd.RejoinCycles == 0 {
				t.Fatalf("crash at %d: caught up %d ops in zero cycles", crashAt, nd.CatchupOps)
			}
		}
		if !accounted(st) {
			t.Fatalf("crash at %d: accounting broken: %+v", crashAt, st)
		}
		// The requests that reach the crashed primary before its owners'
		// leases expire are lost with it and time out; none is refused.
		if st.TimedOut == 0 || st.Unavailable != 0 {
			t.Fatalf("crash at %d: %d timed out, %d unavailable; want some timed out, none unavailable", crashAt, st.TimedOut, st.Unavailable)
		}
	}
	if !sawCatchup {
		t.Fatal("no crash cycle produced catch-up traffic; the smoke is not exercising recovery")
	}
}

// TestQuorumLossIsUnavailability: with R=W=2, losing one replica makes its
// ranges reject updates instead of acknowledging non-quorate writes.
func TestQuorumLossIsUnavailability(t *testing.T) {
	cfg := quickConfig()
	cfg.Requests = 256
	cfg.GetFrac = 0
	cfg.CrashAt = 100_000
	cfg.CrashNode = 0
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Unavailable == 0 {
		t.Fatalf("R=W=2 fleet acknowledged everything with a replica down: %+v", res.Stats)
	}
	if res.PerNode[0].State != "crashed" {
		t.Fatalf("node 0 ended %s, want crashed (no recovery configured)", res.PerNode[0].State)
	}
}

// TestRebalanceUnderZipf: skewed traffic plus the periodic balancer must
// move at least one primaryship, and the run stays fully accounted.
func TestRebalanceUnderZipf(t *testing.T) {
	cfg := quickConfig()
	cfg.Requests = 384
	cfg.ZipfS = 1.4
	cfg.RebalanceEvery = 150_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rebalances == 0 {
		t.Fatal("no primaryship moved under zipfian load")
	}
	if !accounted(res.Stats) {
		t.Fatalf("accounting broken after rebalancing: %+v", res.Stats)
	}
}

func TestValidateRejects(t *testing.T) {
	base := DefaultConfig()
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero rate", func(c *Config) { c.Rate = 0 }, "rate"},
		{"non-durable variant", func(c *Config) { c.Variant = core.VariantBase }, "durable"},
		{"unknown structure", func(c *Config) { c.Structure = "XX" }, "structure"},
		{"replicas over nodes", func(c *Config) { c.Replicas = 4 }, "replication factor"},
		{"quorum over replicas", func(c *Config) { c.Quorum = 3 }, "quorum"},
		{"negative quorum", func(c *Config) { c.Quorum = -1 }, "quorum"},
		{"tiny rtt", func(c *Config) { c.NetRTT = 1 }, "RTT"},
		{"jitter too big", func(c *Config) { c.NetJitter = 1 }, "jitter"},
		{"bad zipf", func(c *Config) { c.ZipfS = 0.5 }, "zipf"},
		{"crash node out of range", func(c *Config) { c.CrashAt = 1000; c.CrashNode = 3 }, "crash node"},
		{"recover without crash", func(c *Config) { c.RecoverAfter = 1000 }, "crash"},
		{"negative log cap", func(c *Config) { c.LogCap = -3 }, "log capacity"},
		{"heartbeats over a huge deadline", func(c *Config) { c.ReqDeadline = 1e12; c.HeartbeatEvery = 4000 }, "heartbeat-every"},
		{"rebalances until a far crash", func(c *Config) { c.CrashAt = 1 << 40; c.RebalanceEvery = 4000 }, "rebalance-every"},
		{"heartbeat tied with one-way delay", func(c *Config) { c.ReqDeadline = 120_000; c.NetJitter = 0; c.HeartbeatEvery = 400 }, "one-way"},
		{"delayed beats outlive the period", func(c *Config) {
			c.Nodes, c.Replicas, c.ReqDeadline, c.HeartbeatEvery = 4, 3, 120_000, 4000
			c.Chaos = &chaos.Plan{Delay: 0.9, DelayMult: 20}
		}, "chaos-delay 0.9"},
		{"reordered beats outlive the period", func(c *Config) {
			c.Nodes, c.ReqDeadline, c.HeartbeatEvery = 6, 120_000, 1200
			c.Chaos = &chaos.Plan{Reorder: 0.5}
		}, "chaos-reorder 0.5"},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

// TestValidateBoundsTicks: a periodic knob may tick at most maxTicks times
// over the worst-case span, here the expected arrival span plus two tries
// of the request deadline.
func TestValidateBoundsTicks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReqDeadline, cfg.RetryMax = 1_000_000, 1
	span := float64(cfg.Requests)*1e6/cfg.Rate + 2*float64(cfg.ReqDeadline)
	cfg.RebalanceEvery = uint64(math.Ceil(span / maxTicks))
	if err := cfg.Validate(); err != nil {
		t.Fatalf("rebalancing %d times rejected: %v", maxTicks, err)
	}
	cfg.RebalanceEvery--
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "rebalance-every") {
		t.Fatalf("rebalancing more than %d times: Validate returned %v", maxTicks, err)
	}
}

// TestValidateBoundsBeatTail: the drain tail of beats whose fate outlives
// the period is bounded at maxTicks expected ticks. A delay counts only
// when a spiked beat can reach the next tick, and no chaos campaign trial
// of the default chaos fleet comes near the bound.
func TestValidateBoundsBeatTail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Nodes, cfg.ReqDeadline, cfg.HeartbeatEvery = 4, 120_000, 4000
	// 12 beats a tick: (1-late)^-12 = 65536 at late = 1 - 2^(-4/3).
	edge := 1 - math.Pow(2, -4.0/3)
	cfg.Chaos = &chaos.Plan{Delay: edge - 1e-9, DelayMult: 9}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("delay %g just under the bound rejected: %v", cfg.Chaos.Delay, err)
	}
	cfg.Chaos.Delay = edge + 1e-9
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "heartbeat-every 4000") {
		t.Fatalf("delay %g just over the bound: Validate returned %v", cfg.Chaos.Delay, err)
	}
	cfg.Chaos.DelayMult = 8 // 480 x 8 < 4000: a spiked beat lands before the next tick
	if err := cfg.Validate(); err != nil {
		t.Fatalf("delays that land within the period rejected: %v", err)
	}
	cc := CampaignConfig{Base: DefaultChaosBase(), Seed: 1}
	for i := 0; i < 500; i++ {
		if err := TrialConfig(cc, i).Validate(); err != nil {
			t.Fatalf("chaos trial %d rejected: %v", i, err)
		}
	}
}

// TestRunReportsTooSmallLogCap: an undo log too small for one operation,
// whether it overflows during warmup or while serving, is the error of
// Run and RunAudited and not a panic.
func TestRunReportsTooSmallLogCap(t *testing.T) {
	for _, warmup := range []int{96, 0} {
		cfg := DefaultConfig()
		cfg.Requests, cfg.Warmup, cfg.LogCap = 8, warmup, 1
		for name, run := range map[string]func(Config) (Result, error){"Run": Run, "RunAudited": RunAudited} {
			if _, err := run(cfg); err == nil || !strings.Contains(err.Error(), "log capacity 1 exceeded") {
				t.Errorf("warmup %d: %s returned %v, want a log capacity error", warmup, name, err)
			}
		}
	}
}

// TestValidateRecoveryOverflow: a recovery cycle that wraps past the
// largest cycle would recover the node before its crash. The last
// representable recovery cycle is still accepted.
func TestValidateRecoveryOverflow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CrashAt = 120_000
	cfg.RecoverAfter = math.MaxUint64 - 60_000
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("wrapping recovery cycle: Validate returned %v", err)
	}
	if _, err := RunAudited(cfg); err == nil {
		t.Fatal("RunAudited accepted a wrapping recovery cycle")
	}
	cfg.RecoverAfter = math.MaxUint64 - cfg.CrashAt
	if err := cfg.Validate(); err != nil {
		t.Fatalf("recovery at the last cycle rejected: %v", err)
	}
}

func resultJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestRunDeterminism: identical configurations — including a crash,
// failover, catch-up and rejoin — must produce byte-identical JSON on
// repeated runs. Run with -race in CI.
func TestRunDeterminism(t *testing.T) {
	cfg := quickConfig()
	cfg.Requests = 192
	cfg.Rate = 300
	cfg.Replicas = 3
	cfg.Quorum = 2
	cfg.BatchMax = 4
	cfg.BatchDeadline = 4000
	cfg.ZipfS = 1.3
	cfg.RebalanceEvery = 200_000
	cfg.CrashAt = 150_000
	cfg.CrashNode = 2
	cfg.RecoverAfter = 250_000
	a := resultJSON(t, cfg)
	b := resultJSON(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestSweepWorkerIndependence: Sweep output must not depend on the worker
// count — results are indexed by grid position.
func TestSweepWorkerIndependence(t *testing.T) {
	sc := DefaultSweepConfig()
	sc.Base.Requests = 48
	sc.Base.Warmup = 32
	sc.Rates = []float64{200, 500}
	sc.Replicas = []int{1, 2}
	sc.Batches = []int{1}
	sweepJSON := func(workers int) []byte {
		sc.Workers = workers
		points, err := Sweep(sc)
		if err != nil {
			t.Fatalf("sweep with %d workers: %v", workers, err)
		}
		b, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := sweepJSON(1)
	many := sweepJSON(8)
	auto := sweepJSON(0)
	if !bytes.Equal(one, many) || !bytes.Equal(one, auto) {
		t.Fatal("sweep output depends on the worker count")
	}
}

// TestRecoveryBeforeLeaseExpiry: a node that restarts before any peer's
// lease on it expires beats again, so nobody takes its primaryships. It
// must still catch up the ranges it leads — from another live owner —
// and rejoin, or the updates it sequenced but had not made durable at the
// crash would never reach it.
func TestRecoveryBeforeLeaseExpiry(t *testing.T) {
	sawLed := false
	for node := 0; node < 3; node++ {
		cfg := DefaultConfig()
		cfg.CrashAt = 120_000
		cfg.CrashNode = node
		cfg.RecoverAfter = 5_000
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		st := res.Stats
		if st.Rejoins != 1 || res.PerNode[node].State != "live" {
			t.Fatalf("node %d: rejoins %d, ended %s; want 1, live", node, st.Rejoins, res.PerNode[node].State)
		}
		if st.Suspicions != 0 {
			t.Fatalf("node %d: %d suspicions of a node back before its lease expired", node, st.Suspicions)
		}
		if st.Completed+st.Dropped+st.Shed+st.TimedOut+st.Unavailable != st.Offered {
			t.Fatalf("node %d: accounting broken: %+v", node, st)
		}
		if res.PerNode[node].CatchupOps > 0 {
			sawLed = true
		}
	}
	if !sawLed {
		t.Fatal("no crash left a node behind on its ranges; the test is not exercising catch-up")
	}
}

// TestCrashedPrimaryLosesArrivals: a request that reaches a crashed
// primary is lost with it and times out. Until a lease can have expired
// (a lease less one heartbeat period after the crash, on a kind network)
// no node knows of the crash, so no request arriving in that window is
// counted unavailable: not one at the crashed primary, and, at W=2, not
// one whose quorum needs the crashed replica either.
func TestCrashedPrimaryLosesArrivals(t *testing.T) {
	for _, tc := range []struct {
		quorum       int
		recoverAfter uint64
	}{{1, 5_000}, {1, 0}, {2, 0}} {
		cfg := DefaultConfig()
		cfg.Replicas, cfg.Quorum = 2, tc.quorum
		cfg.Rate, cfg.Requests, cfg.Warmup = 300, 96, 48
		cfg.BatchMax, cfg.BatchDeadline = 4, 4000
		cfg.CrashAt, cfg.CrashNode, cfg.RecoverAfter = 120_000, 1, tc.recoverAfter
		cfg.Timeline = obs.NewTimeline(0)
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		d := r.Config
		end := d.CrashAt + d.LeaseCycles - d.HeartbeatEvery
		if d.RecoverAfter > 0 {
			end = min(end, d.CrashAt+d.RecoverAfter)
		}
		lost := 0
		for _, e := range cfg.Timeline.Events() {
			switch {
			case e.Name == "cluster.unavailable" && e.Start >= d.CrashAt && e.Start < end:
				t.Errorf("%+v: a request arriving at %d, before any lease on node %d could expire, counted unavailable",
					tc, e.Start, d.CrashNode)
			case e.Name == "cluster.timeout" && e.Start-d.ReqDeadline >= d.CrashAt && e.Start-d.ReqDeadline < end:
				lost++
			}
		}
		if lost == 0 {
			t.Errorf("%+v: no request arriving in [%d, %d) timed out; the test lands none on the crashed node", tc, d.CrashAt, end)
		}
		if !accounted(r.Stats) {
			t.Errorf("%+v: accounting broken: %+v", tc, r.Stats)
		}
	}
}
