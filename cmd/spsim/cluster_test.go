package main

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"specpersist/internal/cluster"
)

// clusterConfig parses a -cluster command line (the mode flag, HM and a
// 96-op warmup, then args) and assembles its fleet configuration.
func clusterConfig(args ...string) (cluster.Config, error) {
	o, _, err := parse(append([]string{"-cluster", "-bench", "HM", "-warmup", "96"}, args...))
	if err != nil {
		return cluster.Config{}, err
	}
	return buildClusterConfig(o)
}

// explicit returns the argument that sets flag name explicitly to its
// default value.
func explicit(name string) string {
	return "-" + name + "=" + newFlags(&options{}).Lookup(name).DefValue
}

func TestBuildClusterConfigValid(t *testing.T) {
	cfg, err := clusterConfig()
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
	largest := strconv.FormatInt(1<<63-1, 10)
	cfg, err := clusterConfig("-crash-at", largest, "-recover-after", largest)
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
		args []string
		want string
	}{
		{"unknown variant", []string{"-variant", "Warp"}, "variant"},
		{"non-durable variant", []string{"-variant", "Base"}, "durable"},
		{"unknown structure", []string{"-bench", "QQ"}, "structure"},
		{"zero rate", []string{"-rate", "0"}, "rate"},
		{"zero nodes", []string{"-nodes", "0"}, "node"},
		{"replicas over nodes", []string{"-replicas", "5"}, "replication factor"},
		{"quorum over replicas", []string{"-quorum", "3"}, "quorum"},
		{"zero vnodes", []string{"-vnodes", "0"}, "-vnodes"},
		{"negative batch", []string{"-batch", "-2"}, "batch"},
		{"negative deadline", []string{"-batch-deadline", "-5"}, "-batch-deadline"},
		{"negative rtt", []string{"-net-rtt", "-1"}, "-net-rtt"},
		{"tiny rtt", []string{"-net-rtt", "1"}, "RTT"},
		{"jitter out of range", []string{"-net-jitter", "1"}, "jitter"},
		{"bad zipf", []string{"-zipf", "0.3"}, "zipf"},
		{"bad get fraction", []string{"-get-frac", "2"}, "get fraction"},
		{"negative crash-at", []string{"-crash-at", "-1"}, "-crash-at"},
		{"crash node out of range", []string{"-crash-at", "1000", "-crash-node", "7"}, "crash node"},
		{"recover without crash", []string{"-recover-after", "1000"}, "crash"},
		{"negative rebalance", []string{"-rebalance-every", "-1"}, "-rebalance-every"},
		{"negative req-deadline", []string{"-req-deadline", "-1"}, "-req-deadline"},
		{"negative retry-max", []string{"-retry-max", "-1"}, "-retry-max"},
		{"hedge quantile out of range", []string{"-hedge-quantile", "1"}, "-hedge-quantile"},
		{"negative shed high water", []string{"-shed-high-water", "-1"}, "-shed-high-water"},
		{"negative heartbeat", []string{"-heartbeat-every", "-1"}, "-heartbeat-every"},
		{"negative lease", []string{"-lease-cycles", "-1"}, "-lease-cycles"},
		{"negative log cap", []string{"-log-cap", "-3"}, "-log-cap must be non-negative"},
		{"negative requests", []string{"-requests", "-4"}, "request count"},
		{"negative queue cap", []string{"-queue-cap", "-1"}, "queue"},
		{"negative keyspace", []string{"-keyspace", "-1"}, "keyspace"},
		{"negative catch-up batch", []string{"-catchup-batch", "-1"}, "catch-up batch"},
		{"drop fraction out of range", []string{"-chaos-drop", "1.5"}, "drop"},
		{"lease not past heartbeat", []string{"-heartbeat-every", "4000", "-lease-cycles", "4000"}, "lease"},
		{"plan file plus inline dials", []string{"-chaos-plan", "plan.json", "-chaos-dup", "0.1"}, "-chaos-plan"},
		{"missing plan file", []string{"-chaos-plan", "does-not-exist.json"}, "-chaos-plan"},
	}
	for _, tc := range cases {
		_, err := clusterConfig(tc.args...)
		if err == nil {
			t.Errorf("%s: accepted %v", tc.name, tc.args)
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
	robust := []string{"-req-deadline", "120000", "-heartbeat-every", "4000", "-lease-cycles", "16000"}
	cfg, err := clusterConfig(append(robust, "-chaos-plan", path)...)
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
	if _, err := clusterConfig(append(robust, "-chaos-plan", bad)...); err == nil {
		t.Fatal("invalid plan file accepted")
	}
}

// clusterForeignFlags are the flags of the benchmark, conflict-engine and
// single-server modes, none of which a -cluster run reads.
var clusterForeignFlags = []string{
	"scale", "checkpoints", "banks",
	"mc-frac", "mc-shared-lines", "mc-ops", "mc-warmup", "mc-disjoint", "expect-rollbacks",
	"service", "cores", "process", "burst-frac", "burst-period",
}

// TestBuildClusterConfigRejectsForeignModeFlags: flags of the benchmark,
// conflict-engine and -service modes must clash loudly with -cluster,
// never be silently ignored, and the error must name every offender.
func TestBuildClusterConfigRejectsForeignModeFlags(t *testing.T) {
	for _, name := range clusterForeignFlags {
		_, err := clusterConfig(explicit(name))
		if err == nil {
			t.Errorf("-%s alongside -cluster was accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("clash error %q does not name -%s", err, name)
		}
	}
	_, err := clusterConfig("-service", "-mc-ops", "48")
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
		_, err := serviceConfig(explicit(name))
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-%s alongside -service: err=%v, want clash naming the flag", name, err)
		}
	}
}

// runCase is one end-to-end spsim invocation: whether it must succeed and
// a string its output or error must contain.
type runCase struct {
	name   string
	args   []string
	wantOK bool
	want   string
}

// checkRuns drives run for each case: invalid combinations must return an
// error (a non-zero exit) with a diagnostic, valid runs must succeed.
func checkRuns(t *testing.T, cases []runCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if tc.wantOK && err != nil {
				t.Fatalf("expected success, got %v:\n%s", err, out.String())
			}
			if !tc.wantOK && err == nil {
				t.Fatalf("invalid flags accepted:\n%s", out.String())
			}
			got := out.String()
			if err != nil {
				got += err.Error()
			}
			if !strings.Contains(got, tc.want) {
				t.Errorf("output does not mention %q:\n%s", tc.want, got)
			}
		})
	}
}

// TestClusterModeExitCodes: invalid -cluster combinations must fail with
// a diagnostic, and a small valid run must succeed.
func TestClusterModeExitCodes(t *testing.T) {
	checkRuns(t, []runCase{
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
		{"lossy chaos alone runs and audits clean", []string{
			"-cluster", "-rate", "400", "-requests", "24", "-warmup", "24",
			"-chaos-drop", "0.1", "-audit",
		}, true, "0 violations"},
		{"chaos plan file clashes with dials", []string{
			"-cluster", "-chaos-plan", "p.json", "-chaos-drop", "0.05",
		}, false, "-chaos-plan"},
		{"bad hedge quantile", []string{
			"-cluster", "-hedge-quantile", "1.5",
		}, false, "-hedge-quantile"},
		{"chaos flags clash with service", []string{
			"-service", "-chaos-drop", "0.1",
		}, false, "-chaos-drop"},
		{"undo log too small", []string{
			"-cluster", "-requests", "8", "-warmup", "8", "-log-cap", "1",
		}, false, "log capacity 1 exceeded"},
		{"negative undo log", []string{"-cluster", "-log-cap", "-3"}, false, "-log-cap must be non-negative, got -3"},
		{"beats outlive the period", []string{
			"-cluster", "-nodes", "4", "-replicas", "3", "-rate", "400", "-requests", "24", "-warmup", "24",
			"-req-deadline", "120000", "-heartbeat-every", "4000", "-chaos-delay", "0.9", "-chaos-delay-mult", "20",
		}, false, "chaos-delay 0.9 (x chaos-delay-mult 20)"},
	})
}
