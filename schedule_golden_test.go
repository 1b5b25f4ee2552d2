package specpersist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specpersist/internal/cluster"
	"specpersist/internal/litmus"
	"specpersist/internal/multicore"
	"specpersist/internal/service"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule_golden.json")

// scheduleScenarios are the runs whose exact interleaving the golden file
// pins: every simulator that picks the globally earliest event among
// cores, nodes and timers (multicore, service, cluster) at shapes that
// exercise its tie-breaks — equal-cycle arrivals and batch starts, group
// commit, crash/rejoin/rebalance, heartbeat and rebalance ticks landing
// on busy nodes, hedging and retries under chaos, and real coherence
// probes. The determinism tests only compare a run with itself, so a
// changed tie-break would pass them; these digests would not.
var scheduleScenarios = []struct {
	name string
	run  func() (any, error)
}{
	{"service-k8-4shards", func() (any, error) {
		cfg := service.DefaultConfig()
		cfg.Cores = 4
		cfg.Rate = 400
		cfg.BatchMax = 8
		cfg.BatchDeadline = 4000
		return service.Run(cfg)
	}},
	{"service-bursty-k1", func() (any, error) {
		cfg := service.DefaultConfig()
		cfg.Cores = 2
		cfg.Rate = 200
		cfg.Process = service.Bursty
		return service.Run(cfg)
	}},
	{"fleet-crash-rejoin-rebalance", func() (any, error) {
		cfg := cluster.DefaultConfig()
		cfg.Requests = 192
		cfg.Warmup = 48
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
		return cluster.Run(cfg)
	}},
	{"fleet-heartbeat-rebalance-ties", func() (any, error) {
		cfg := cluster.DefaultConfig()
		cfg.Requests = 192
		cfg.Warmup = 48
		cfg.Rate = 300
		cfg.Replicas = 3
		cfg.BatchMax = 2
		cfg.BatchDeadline = 4000
		cfg.ZipfS = 1.3
		cfg.RebalanceEvery = 40_000
		cfg.HeartbeatEvery = 4_000
		cfg.LeaseCycles = 16_000
		cfg.ReqDeadline = 120_000
		cfg.RetryMax = 4
		cfg.CrashAt = 150_000
		cfg.CrashNode = 1
		cfg.RecoverAfter = 250_000
		return cluster.Run(cfg)
	}},
	{"fleet-serve-vt16", func() (any, error) {
		return cluster.RunAudited(fleetServeConfig(2000))
	}},
	{"chaos-24-trials", func() (any, error) {
		return cluster.Campaign(cluster.CampaignConfig{Base: cluster.DefaultChaosBase(), Trials: 24, Seed: 1, Workers: 2})
	}},
	{"multicore-4core", func() (any, error) {
		w := multicore.DefaultWorkload()
		w.Cores = 4
		w.Ops = 32
		return multicore.RunWorkload(w, multicore.DefaultConfig())
	}},
	{"litmus-40", func() (any, error) {
		return litmus.Campaign(litmus.CampaignConfig{Programs: 40, Seed: 1, Workers: 2})
	}},
}

// TestScheduleGolden checks each scenario's result against the sha256
// digest of its JSON recorded in testdata/schedule_golden.json. Run with
// -update to rewrite the file after an intended change in simulated
// behaviour.
func TestScheduleGolden(t *testing.T) {
	path := filepath.Join("testdata", "schedule_golden.json")
	got := make(map[string]string, len(scheduleScenarios))
	for _, sc := range scheduleScenarios {
		res, err := sc.run()
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: marshal: %v", sc.name, err)
		}
		sum := sha256.Sum256(b)
		got[sc.name] = hex.EncodeToString(sum[:])
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
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
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, the test runs %d scenarios", path, len(want), len(got))
	}
	for _, sc := range scheduleScenarios {
		if got[sc.name] != want[sc.name] {
			t.Errorf("%s: result digest %s, golden %s", sc.name, got[sc.name], want[sc.name])
		}
	}
}
