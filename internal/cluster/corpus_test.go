package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"specpersist/internal/chaos"
	"specpersist/internal/core"
	"specpersist/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens (fleet corpus, figure renderings)")

// corpusEntry is one recorded fleet run: the full configuration and the
// sha256 digest of its RunAudited result JSON (or of the error text).
type corpusEntry struct {
	Config Config `json:"config"`
	Digest string `json:"digest"`
}

var corpusSize = 40 + len(beatStress)

// corpusConfig returns fleet configuration i of the equivalence corpus:
// the first 40 are random draws (see randomCorpusConfig), the rest the
// hand-built heartbeat stress shapes of beatStress.
func corpusConfig(i int) Config {
	if i >= 40 {
		return beatStressConfig(i - 40)
	}
	return randomCorpusConfig(i)
}

// randomCorpusConfig draws fleet configuration i of the equivalence corpus. The
// draws cover what can reorder the event loop: chaos fates, partitions and
// gray windows (from chaos.GenPlan), a crash with and without recovery at
// a cycle inside the arrival span (so the crashed node is often mid-run),
// heartbeat failure detection, the rebalancer, broken dedup, replication
// factors 1 to 3, group commit, and the Log+P+Sf, Log+P and SP machines.
func randomCorpusConfig(i int) Config {
	rng := rand.New(rand.NewSource(int64(i)*7919 + 101))
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	cfg := DefaultConfig()
	cfg.Seed = int64(i + 1)
	cfg.Structure = []string{"HM", "VT", "LL", "BT", "GH"}[rng.Intn(5)]
	cfg.Variant = []core.Variant{core.VariantSP, core.VariantLogPSf, core.VariantSP, core.VariantLogP}[rng.Intn(4)]
	cfg.Nodes = 3 + rng.Intn(4)
	cfg.Replicas = 1 + rng.Intn(3)
	if cfg.Replicas > 1 && rng.Intn(3) == 0 {
		cfg.Quorum = 1 + rng.Intn(cfg.Replicas)
	}
	cfg.Requests = 60 + rng.Intn(100)
	cfg.Warmup = 16 + rng.Intn(32)
	cfg.Keyspace = pick(64, 128, 256)
	cfg.Rate = float64(pick(150, 400, 900, 2000))
	cfg.BatchMax = 1 + rng.Intn(4)
	if cfg.BatchMax > 1 {
		cfg.BatchDeadline = uint64(pick(0, 2000, 4000))
	}
	cfg.GetFrac = 0.1 * float64(rng.Intn(4))
	if rng.Intn(3) == 0 {
		cfg.ZipfS = 1.3
	}
	cfg.OpOverhead = pick(0, 0, 50, -1)
	cfg.NetRTT = uint64(pick(400, 800, 1200))
	span := uint64(float64(cfg.Requests) / cfg.Rate * 1e6)
	if rng.Intn(3) == 0 {
		cfg.RebalanceEvery = span/4 + 1
	}
	lossy := false
	if rng.Intn(2) == 0 {
		plan := chaos.GenPlan(int64(rng.Uint32()), cfg.Nodes, span)
		cfg.Chaos = &plan
		lossy = plan.Lossy()
	}
	if lossy || rng.Intn(3) == 0 {
		cfg.HeartbeatEvery = uint64(pick(2000, 4000))
		cfg.ReqDeadline = 120_000
		cfg.RetryMax = pick(0, 4)
		if rng.Intn(2) == 0 {
			cfg.HedgeQuantile = 0.95
		}
	}
	if rng.Intn(4) != 0 {
		cfg.CrashAt = span/8 + uint64(rng.Int63n(int64(span/2)))
		cfg.CrashNode = rng.Intn(cfg.Nodes)
		if rng.Intn(3) != 0 {
			cfg.RecoverAfter = span / 4
		}
	}
	if i%8 == 7 {
		// Negative control: duplicates must be re-applied and audited.
		cfg.BreakDedup = true
		if cfg.Chaos == nil {
			cfg.Chaos = &chaos.Plan{Seed: int64(i), Dup: 0.2}
		}
	}
	return cfg
}

// beatStress lists the corpus's heartbeat stress shapes: each edits a
// small detection-mode fleet so that liveness beats, not requests, decide
// when leases expire and when the run ends.
var beatStress = []func(c *Config){
	// Delay fates that outlive the period: a spiked beat lands several
	// ticks after it was sent, behind beats sent later.
	func(c *Config) {
		c.Chaos = &chaos.Plan{Seed: 40, Delay: 0.3, DelayMult: 12}
	},
	// Reorder fates that outlive the period, on a 4-node R=3 fleet.
	func(c *Config) {
		c.Nodes, c.Replicas = 4, 3
		c.NetRTT, c.HeartbeatEvery = 1200, 1500
		c.Chaos = &chaos.Plan{Seed: 41, Reorder: 0.35}
	},
	// A gray window twenty leases long: node 0's beats arrive a lease
	// late, so its live primaryships move (wrong suspicions).
	func(c *Config) {
		c.Chaos = &chaos.Plan{Seed: 42, Dup: 0.1,
			Grays: []chaos.Gray{{From: 50_000, To: 250_000, Node: 0, Slow: 40}}}
	},
	// A partition longer than a lease, with drops, on 4 nodes.
	func(c *Config) {
		c.Nodes, c.Replicas = 4, 3
		c.Chaos = &chaos.Plan{Seed: 43, Drop: 0.05,
			Partitions: []chaos.Partition{{From: 100_000, To: 200_000, Group: []int{1}}}}
	},
	// A crash and a recovery off the tick grid, with delayed beats in
	// flight across both.
	func(c *Config) {
		c.CrashAt, c.CrashNode, c.RecoverAfter = 150_007, 1, 60_011
		c.Chaos = &chaos.Plan{Seed: 44, Delay: 0.4, DelayMult: 15}
	},
	// A period one cycle above the longest one-way delay, with a tight
	// lease: beats land just before the next tick.
	func(c *Config) {
		c.NetRTT, c.NetJitter = 1600, 0.25
		c.HeartbeatEvery, c.LeaseCycles = 1001, 3000
		c.Chaos = &chaos.Plan{Seed: 45, Dup: 0.2, Reorder: 0.1,
			Grays: []chaos.Gray{{From: 30_000, To: 90_000, Node: 2, Slow: 3.5}}}
	},
	// Rebalance ticks that keep firing while only delayed beats are in
	// flight, under a skewed load and a crash that is never recovered.
	func(c *Config) {
		c.Nodes = 4
		c.ZipfS = 1.3
		c.RebalanceEvery, c.HeartbeatEvery = 1700, 2500
		c.CrashAt, c.CrashNode = 200_000, 3
		c.Chaos = &chaos.Plan{Seed: 46, Delay: 0.2, DelayMult: 20}
	},
	// Everything at once on 5 nodes: group commit on Log+P+Sf, a tight
	// lease, drops, delays, a partition, a gray node and a recovered crash.
	func(c *Config) {
		c.Nodes, c.Replicas = 5, 3
		c.Variant = core.VariantLogPSf
		c.BatchMax, c.BatchDeadline = 3, 2000
		c.LeaseCycles = 5000
		c.CrashAt, c.CrashNode, c.RecoverAfter = 180_000, 2, 40_000
		c.Chaos = &chaos.Plan{Seed: 47, Drop: 0.03, Delay: 0.1, DelayMult: 8,
			Partitions: []chaos.Partition{{From: 60_000, To: 75_000, Group: []int{0, 4}}},
			Grays:      []chaos.Gray{{From: 120_000, To: 160_000, Node: 3, Slow: 12}}}
	},
	// Leases that expire exactly at a tick: with no jitter every message
	// takes 400 cycles, the primary crashes one cycle after a tick, and
	// the lease is four periods less one trip, so its owners find
	// lastBeat + lease equal to the tick's cycle.
	func(c *Config) {
		c.NetJitter = 0
		c.Rate, c.Requests = 4000, 160
		c.LeaseCycles = 4*2000 - 400
		c.CrashAt, c.CrashNode = 10_001, 0
	},
	// Beats that land exactly on a tick: with no jitter a delayed beat
	// takes 5 x 400 cycles, one period, and drops silence the rest, so a
	// lease often survives only by a beat the tick must not yet count.
	func(c *Config) {
		c.NetJitter = 0
		c.LeaseCycles = 3 * 2000
		c.Chaos = &chaos.Plan{Seed: 49, Drop: 0.45, Delay: 0.45, DelayMult: 5}
	},
}

// beatStressConfig builds heartbeat stress shape i on a 3-node R=2 SP
// fleet that beats every 2,000 cycles under request deadlines and retries.
func beatStressConfig(i int) Config {
	cfg := DefaultConfig()
	cfg.Seed = int64(40 + i + 1)
	cfg.Requests = 80
	cfg.Warmup = 16
	cfg.Rate = 150
	cfg.ReqDeadline = 120_000
	cfg.RetryMax = 4
	cfg.HeartbeatEvery = 2000
	beatStress[i](&cfg)
	return cfg
}

// corpusDigest runs cfg audited and digests the outcome.
func corpusDigest(cfg Config) string {
	var b []byte
	r, err := RunAudited(cfg)
	if err != nil {
		b = []byte("error: " + err.Error())
	} else if b, err = json.Marshal(r); err != nil {
		b = []byte("marshal: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFleetCorpusDigests replays the recorded corpus of seeded random
// fleet configurations and requires every RunAudited result to match its
// recorded digest byte for byte. The digests were recorded with the
// lockstep event loop that stepped every busy node one scan at a time, so
// this pins the run-ahead loop to that loop's event order. Run with
// -update to regenerate the corpus after an intended change in simulated
// behaviour.
func TestFleetCorpusDigests(t *testing.T) {
	path := filepath.Join("testdata", "fleet_corpus.json")
	if *update {
		entries := make([]corpusEntry, corpusSize)
		for i := range entries {
			cfg := corpusConfig(i)
			entries[i] = corpusEntry{Config: cfg, Digest: corpusDigest(cfg)}
		}
		b, err := json.MarshalIndent(entries, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var entries []corpusEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(entries) != corpusSize {
		t.Fatalf("%s has %d entries, want %d", path, len(entries), corpusSize)
	}
	for i, e := range entries {
		e := e
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			t.Parallel()
			if got := corpusDigest(e.Config); got != e.Digest {
				t.Errorf("config %d: result digest %s, recorded %s", i, got, e.Digest)
			}
		})
	}
}

// TestCrashDetectedByLease replays corpus entry 3 (BT, R=W=2, node 1
// crashes mid-run and recovers, rebalancing on) with a timeline. No node
// learns of the crash but through its leases: the requests it strands
// time out, none that arrived after the crash's detection bound (a lease
// and one heartbeat period) does, and the first failover after the crash
// lands within that bound.
func TestCrashDetectedByLease(t *testing.T) {
	cfg := corpusConfig(3)
	cfg.Timeline = obs.NewTimeline(0)
	r, err := RunAudited(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Audit.Clean() {
		t.Errorf("audit found %d violations: %+v", r.Audit.Total, r.Audit.Violations)
	}
	st, d := r.Stats, r.Config
	if sum := st.Completed + st.Dropped + st.Shed + st.TimedOut + st.Failed + st.Unavailable; sum != st.Offered {
		t.Errorf("%d completed + %d dropped + %d shed + %d timed-out + %d failed + %d unavailable = %d, offered %d",
			st.Completed, st.Dropped, st.Shed, st.TimedOut, st.Failed, st.Unavailable, sum, st.Offered)
	}
	if st.TimedOut == 0 || st.Failed != 0 {
		t.Errorf("%d requests timed out and %d failed; the crash should strand some into their deadlines", st.TimedOut, st.Failed)
	}
	detected := d.CrashAt + d.LeaseCycles + d.HeartbeatEvery
	var failover uint64
	for _, e := range cfg.Timeline.Events() {
		switch {
		case e.Name == "cluster.timeout" && e.Start-d.ReqDeadline >= detected:
			t.Errorf("a request that arrived at %d, after crash %d + lease %d + period %d, timed out",
				e.Start-d.ReqDeadline, d.CrashAt, d.LeaseCycles, d.HeartbeatEvery)
		case e.Name == "cluster.failover" && e.Start >= d.CrashAt && failover == 0:
			failover = e.Start
		}
	}
	if failover == 0 || failover > detected {
		t.Errorf("first failover after the crash at %d came at %d, want by crash + lease %d + period %d",
			d.CrashAt, failover, d.LeaseCycles, d.HeartbeatEvery)
	}
}

// TestBeatStressMovesPrimaries checks that the heartbeat stress shapes
// reach the lease check's outcomes their digests are meant to pin: at
// least one moves a primaryship on an expired lease, and at least one
// suspects a primary that was alive.
func TestBeatStressMovesPrimaries(t *testing.T) {
	var failovers, wrong int
	for i := range beatStress {
		r, err := RunAudited(beatStressConfig(i))
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if r.Stats.Suspicions > 0 {
			failovers++
		}
		if r.Stats.WrongSuspicions > 0 {
			wrong++
		}
		t.Logf("shape %d: heartbeats %d, suspicions %d, wrong %d, failovers %d, span %d",
			i, r.Stats.Heartbeats, r.Stats.Suspicions, r.Stats.WrongSuspicions, r.Stats.Failovers, r.Stats.SpanCycles)
	}
	if failovers == 0 {
		t.Error("no stress shape moved a primaryship on an expired lease")
	}
	if wrong == 0 {
		t.Error("no stress shape suspected a live primary")
	}
}
