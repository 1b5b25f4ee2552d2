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
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fleet_corpus.json")

// corpusEntry is one recorded fleet run: the full configuration and the
// sha256 digest of its RunAudited result JSON (or of the error text).
type corpusEntry struct {
	Config Config `json:"config"`
	Digest string `json:"digest"`
}

const corpusSize = 40

// corpusConfig draws fleet configuration i of the equivalence corpus. The
// draws cover what can reorder the event loop: chaos fates, partitions and
// gray windows (from chaos.GenPlan), a crash with and without recovery at
// a cycle inside the arrival span (so the crashed node is often mid-run),
// heartbeat failure detection, the rebalancer, broken dedup, replication
// factors 1 to 3, group commit, and the Log+P+Sf, Log+P and SP machines.
func corpusConfig(i int) Config {
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
	if *updateCorpus {
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

// TestCrashRepairCountsAckOnce replays corpus entry 3 (BT, R=W=2, node 1
// crashes mid-run and recovers, rebalancing on). At the crash, request 31
// holds node 0's ack and node 1 has not applied it durably. Its quorum is
// then out of reach, so the oracle repair must fail it. Counting node 0's
// ack both as got and as a possible ack left it pending, and the run
// ended with its request accounting broken.
func TestCrashRepairCountsAckOnce(t *testing.T) {
	r, err := RunAudited(corpusConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Audit.Clean() {
		t.Errorf("audit found %d violations: %+v", r.Audit.Total, r.Audit.Violations)
	}
	st := r.Stats
	if sum := st.Completed + st.Dropped + st.Shed + st.TimedOut + st.Failed + st.Unavailable; sum != st.Offered {
		t.Errorf("%d completed + %d dropped + %d shed + %d timed-out + %d failed + %d unavailable = %d, offered %d",
			st.Completed, st.Dropped, st.Shed, st.TimedOut, st.Failed, st.Unavailable, sum, st.Offered)
	}
	if st.Failed == 0 {
		t.Error("no request failed at the crash")
	}
}
