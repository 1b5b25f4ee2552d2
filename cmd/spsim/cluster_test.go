package main

import (
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func validClusterOptions() clusterOptions {
	return clusterOptions{
		Structure: "HM",
		Variant:   "SP",
		Nodes:     3,
		Replicas:  2,
		VNodes:    8,
		Rate:      50,
		Warmup:    96,
		Batch:     1,
		GetFrac:   0.25,
		NetJitter: 0.2,
		Seed:      1,
		SetFlags:  map[string]bool{},
	}
}

func TestBuildClusterConfigValid(t *testing.T) {
	cfg, err := buildClusterConfig(validClusterOptions())
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if cfg.Structure != "HM" || cfg.Nodes != 3 || cfg.Replicas != 2 {
		t.Errorf("config not assembled from options: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("assembled config fails validation: %v", err)
	}
}

// TestBuildClusterConfigLargestCrashWindow: the crash flags are signed
// 64-bit, so even both at their maximum the recovery cycle fits in the
// fleet's unsigned cycle counter; Config.Validate's overflow check is for
// configs built elsewhere (chaos -replay JSON), and the flags pass it.
func TestBuildClusterConfigLargestCrashWindow(t *testing.T) {
	o := validClusterOptions()
	o.CrashAt = math.MaxInt64
	o.RecoverAfter = math.MaxInt64
	cfg, err := buildClusterConfig(o)
	if err != nil {
		t.Fatalf("largest crash window rejected: %v", err)
	}
	if cfg.CrashAt+cfg.RecoverAfter < cfg.CrashAt {
		t.Fatalf("recovery cycle wrapped: crash %d + %d", cfg.CrashAt, cfg.RecoverAfter)
	}
}

func TestBuildClusterConfigRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*clusterOptions)
		want string
	}{
		{"unknown variant", func(o *clusterOptions) { o.Variant = "Warp" }, "variant"},
		{"non-durable variant", func(o *clusterOptions) { o.Variant = "Base" }, "durable"},
		{"unknown structure", func(o *clusterOptions) { o.Structure = "QQ" }, "structure"},
		{"zero rate", func(o *clusterOptions) { o.Rate = 0 }, "rate"},
		{"zero nodes", func(o *clusterOptions) { o.Nodes = 0 }, "node"},
		{"replicas over nodes", func(o *clusterOptions) { o.Replicas = 5 }, "replication factor"},
		{"quorum over replicas", func(o *clusterOptions) { o.Quorum = 3 }, "quorum"},
		{"zero vnodes", func(o *clusterOptions) { o.VNodes = 0 }, "virtual node"},
		{"negative batch", func(o *clusterOptions) { o.Batch = -2 }, "batch"},
		{"negative deadline", func(o *clusterOptions) { o.Deadline = -5 }, "-batch-deadline"},
		{"negative rtt", func(o *clusterOptions) { o.NetRTT = -1 }, "-net-rtt"},
		{"tiny rtt", func(o *clusterOptions) { o.NetRTT = 1 }, "RTT"},
		{"jitter out of range", func(o *clusterOptions) { o.NetJitter = 1 }, "jitter"},
		{"bad zipf", func(o *clusterOptions) { o.Zipf = 0.3 }, "zipf"},
		{"bad get fraction", func(o *clusterOptions) { o.GetFrac = 2 }, "get fraction"},
		{"negative crash-at", func(o *clusterOptions) { o.CrashAt = -1 }, "-crash-at"},
		{"crash node out of range", func(o *clusterOptions) { o.CrashAt = 1000; o.CrashNode = 7 }, "crash node"},
		{"recover without crash", func(o *clusterOptions) { o.RecoverAfter = 1000 }, "crash"},
		{"negative rebalance", func(o *clusterOptions) { o.RebalanceEvery = -1 }, "-rebalance-every"},
		{"negative req-deadline", func(o *clusterOptions) { o.ReqDeadline = -1 }, "-req-deadline"},
		{"negative retry-max", func(o *clusterOptions) { o.RetryMax = -1 }, "-retry-max"},
		{"hedge quantile out of range", func(o *clusterOptions) { o.HedgeQuantile = 1 }, "-hedge-quantile"},
		{"negative shed high water", func(o *clusterOptions) { o.ShedHighWater = -1 }, "-shed-high-water"},
		{"negative heartbeat", func(o *clusterOptions) { o.HeartbeatEvery = -1 }, "-heartbeat-every"},
		{"negative lease", func(o *clusterOptions) { o.LeaseCycles = -1 }, "-lease-cycles"},
		{"drop fraction out of range", func(o *clusterOptions) {
			o.ChaosDrop = 1.5
			o.SetFlags["chaos-drop"] = true
		}, "drop"},
		{"lossy chaos without deadline", func(o *clusterOptions) {
			o.ChaosDrop = 0.1
			o.SetFlags["chaos-drop"] = true
		}, "deadline"},
		{"heartbeats without deadline", func(o *clusterOptions) { o.HeartbeatEvery = 4000 }, "deadline"},
		{"lease not past heartbeat", func(o *clusterOptions) {
			o.ReqDeadline = 100_000
			o.HeartbeatEvery = 4000
			o.LeaseCycles = 4000
		}, "lease"},
		{"plan file plus inline dials", func(o *clusterOptions) {
			o.ChaosPlanFile = "plan.json"
			o.ChaosDup = 0.1
			o.SetFlags["chaos-dup"] = true
		}, "-chaos-plan"},
		{"missing plan file", func(o *clusterOptions) { o.ChaosPlanFile = "does-not-exist.json" }, "-chaos-plan"},
	}
	for _, tc := range cases {
		o := validClusterOptions()
		tc.mut(&o)
		_, err := buildClusterConfig(o)
		if err == nil {
			t.Errorf("%s: accepted %+v", tc.name, o)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestBuildClusterConfigLoadsPlanFile: a plan JSON on disk (the shrinker's
// output format) replays into the fleet configuration verbatim.
func TestBuildClusterConfigLoadsPlanFile(t *testing.T) {
	path := t.TempDir() + "/plan.json"
	if err := os.WriteFile(path, []byte(`{"seed": 7, "drop": 0.1, "dup": 0.05}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o := validClusterOptions()
	o.ChaosPlanFile = path
	o.ReqDeadline = 120_000
	o.HeartbeatEvery = 4_000
	o.LeaseCycles = 16_000
	cfg, err := buildClusterConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Chaos == nil || cfg.Chaos.Seed != 7 || cfg.Chaos.Drop != 0.1 || cfg.Chaos.Dup != 0.05 {
		t.Fatalf("plan not loaded from file: %+v", cfg.Chaos)
	}
	bad := path + ".bad"
	if err := os.WriteFile(bad, []byte(`{"drop": 2.0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o.ChaosPlanFile = bad
	if _, err := buildClusterConfig(o); err == nil {
		t.Fatal("invalid plan file accepted")
	}
}

// TestBuildClusterConfigRejectsForeignModeFlags: flags of the benchmark,
// conflict-engine and -service modes must clash loudly with -cluster,
// never be silently ignored, and the error must name every offender.
func TestBuildClusterConfigRejectsForeignModeFlags(t *testing.T) {
	for _, name := range incompatibleWithCluster {
		o := validClusterOptions()
		o.SetFlags = map[string]bool{name: true}
		_, err := buildClusterConfig(o)
		if err == nil {
			t.Errorf("-%s alongside -cluster was accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("clash error %q does not name -%s", err, name)
		}
	}
	o := validClusterOptions()
	o.SetFlags = map[string]bool{"service": true, "mc-ops": true}
	_, err := buildClusterConfig(o)
	if err == nil || !strings.Contains(err.Error(), "-service") || !strings.Contains(err.Error(), "-mc-ops") {
		t.Errorf("multi-flag clash error %v must list every offending flag", err)
	}
}

// TestClusterFlagsClashWithService: the cluster flag family must also be
// rejected from the -service side, so the two modes cannot be mixed in
// either direction.
func TestClusterFlagsClashWithService(t *testing.T) {
	for _, name := range []string{
		"cluster", "replicas", "quorum", "net-rtt", "crash-at",
		"chaos-plan", "chaos-drop", "req-deadline", "retry-max",
		"heartbeat-every", "audit",
	} {
		o := validOptions()
		o.SetFlags = map[string]bool{name: true}
		_, err := buildServiceConfig(o)
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-%s alongside -service: err=%v, want clash naming the flag", name, err)
		}
	}
}

// TestClusterModeExitCodes drives the real binary via the re-exec helper:
// invalid -cluster combinations must exit non-zero with a diagnostic, and
// a small valid run must exit zero.
func TestClusterModeExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		wantOK bool
		want   string
	}{
		{"valid run", []string{"-cluster", "-rate", "400", "-requests", "24", "-warmup", "24"}, true, "cluster"},
		{"clashing service flags", []string{"-cluster", "-process", "bursty"}, false, "-process"},
		{"clashing bench flags", []string{"-cluster", "-scale", "0.5"}, false, "-scale"},
		{"bad replicas", []string{"-cluster", "-replicas", "9"}, false, "replication factor"},
		{"bad quorum", []string{"-cluster", "-replicas", "2", "-quorum", "3"}, false, "quorum"},
		{"bad rtt", []string{"-cluster", "-net-rtt", "1"}, false, "RTT"},
		{"recover without crash", []string{"-cluster", "-recover-after", "500"}, false, "crash"},
		{"chaos run with robustness stack", []string{
			"-cluster", "-rate", "400", "-requests", "24", "-warmup", "24",
			"-chaos-drop", "0.05", "-chaos-dup", "0.05",
			"-req-deadline", "120000", "-retry-max", "4",
			"-heartbeat-every", "4000", "-lease-cycles", "16000",
		}, true, "chaos fabric"},
		{"audited run reports", []string{
			"-cluster", "-rate", "400", "-requests", "24", "-warmup", "24", "-audit",
		}, true, "audit"},
		{"lossy chaos needs a deadline", []string{
			"-cluster", "-chaos-drop", "0.05",
		}, false, "deadline"},
		{"chaos plan file clashes with dials", []string{
			"-cluster", "-chaos-plan", "p.json", "-chaos-drop", "0.05",
		}, false, "-chaos-plan"},
		{"bad hedge quantile", []string{
			"-cluster", "-hedge-quantile", "1.5",
		}, false, "-hedge-quantile"},
		{"chaos flags clash with service", []string{
			"-service", "-chaos-drop", "0.1",
		}, false, "-chaos-drop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run", "TestHelperSpsimMain")
			cmd.Env = append(os.Environ(), "SPSIM_HELPER_ARGS="+strings.Join(tc.args, "\x1f"))
			out, err := cmd.CombinedOutput()
			if tc.wantOK && err != nil {
				t.Fatalf("expected success, got %v:\n%s", err, out)
			}
			if !tc.wantOK {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("expected a non-zero exit, got err=%v:\n%s", err, out)
				}
				if ee.ExitCode() == 0 {
					t.Fatalf("exit code 0 for invalid flags:\n%s", out)
				}
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("output does not mention %q:\n%s", tc.want, out)
			}
		})
	}
}
