package main

import (
	"strings"
	"testing"

	"specpersist/internal/service"
)

// serviceConfig parses a -service command line (the mode flag, then args)
// and assembles its server configuration.
func serviceConfig(args ...string) (service.Config, error) {
	o, _, err := parse(append([]string{"-service"}, args...))
	if err != nil {
		return service.Config{}, err
	}
	return servingConfig(o)
}

func TestBuildServiceConfigValid(t *testing.T) {
	cfg, err := serviceConfig()
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if cfg.Structure != "LL" || cfg.Rate != 50 {
		t.Errorf("config not assembled from options: %+v", cfg)
	}
}

func TestBuildServiceConfigRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown variant", []string{"-variant", "Warp"}, "variant"},
		{"non-durable variant", []string{"-variant", "Base"}, "durable"},
		{"negative cores", []string{"-cores", "-1"}, "-cores"},
		{"negative deadline", []string{"-batch-deadline", "-5"}, "-batch-deadline"},
		{"negative burst period", []string{"-burst-period", "-1"}, "-burst-period"},
		{"zero rate", []string{"-rate", "0"}, "rate"},
		{"negative batch", []string{"-batch", "-2"}, "batch"},
		{"negative queue cap", []string{"-queue-cap", "-1"}, "queue"},
		{"bad get fraction", []string{"-get-frac", "2"}, "get fraction"},
		{"unknown structure", []string{"-bench", "QQ"}, "structure"},
		{"unknown process", []string{"-process", "steady"}, "process"},
		{"negative requests", []string{"-requests", "-4"}, "request count"},
		{"negative log cap", []string{"-log-cap", "-3"}, "-log-cap must be non-negative"},
	}
	for _, tc := range cases {
		_, err := serviceConfig(tc.args...)
		if err == nil {
			t.Errorf("%s: accepted %v", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// serviceForeignFlags are the flags of the benchmark, conflict-engine and
// fleet modes, none of which a -service run reads.
var serviceForeignFlags = []string{
	"scale", "mc-frac", "mc-shared-lines", "mc-ops", "mc-warmup", "mc-disjoint",
	"expect-rollbacks", "checkpoints", "banks",
	"cluster", "nodes", "replicas", "quorum", "vnodes", "zipf",
	"net-rtt", "net-jitter", "catchup-batch",
	"crash-at", "crash-node", "recover-after", "rebalance-every",
	"chaos-plan", "chaos-seed", "chaos-drop", "chaos-dup", "chaos-delay",
	"chaos-delay-mult", "chaos-reorder",
	"req-deadline", "retry-max", "hedge-quantile", "shed-high-water",
	"heartbeat-every", "lease-cycles", "audit",
}

// TestBuildServiceConfigRejectsForeignModeFlags: flags of the benchmark and
// conflict-engine modes must clash loudly with -service, never be silently
// ignored, and the error must name every offender.
func TestBuildServiceConfigRejectsForeignModeFlags(t *testing.T) {
	for _, name := range serviceForeignFlags {
		_, err := serviceConfig(explicit(name))
		if err == nil {
			t.Errorf("-%s alongside -service was accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("clash error %q does not name -%s", err, name)
		}
	}
	_, err := serviceConfig("-scale", "0.5", "-mc-ops", "48")
	if err == nil || !strings.Contains(err.Error(), "-mc-ops") || !strings.Contains(err.Error(), "-scale") {
		t.Errorf("multi-flag clash error %v must list every offending flag", err)
	}
}

// TestServiceModeExitCodes: invalid flag combinations must fail with a
// diagnostic, and a small valid run must succeed.
func TestServiceModeExitCodes(t *testing.T) {
	checkRuns(t, []runCase{
		{"valid run", []string{"-service", "-rate", "800", "-requests", "16", "-warmup", "16"}, true, "service"},
		{"clashing mode flags", []string{"-service", "-scale", "0.5"}, false, "-scale"},
		{"bad variant", []string{"-service", "-variant", "Base"}, false, "durable"},
		{"bad rate", []string{"-service", "-rate", "-1"}, false, "rate"},
		{"bad batch", []string{"-service", "-batch", "0"}, false, "batch"},
		{"undo log too small", []string{"-service", "-requests", "8", "-warmup", "8", "-log-cap", "1"}, false, "log capacity 1 exceeded"},
	})
}

// TestRejectsFlagsForeignToMode: every mode rejects the flags it does not
// read, every flag set without the flag it requires, and SP hardware sizes
// below zero or on a non-speculative variant, naming them; each of these
// runs used to ignore them silently.
func TestRejectsFlagsForeignToMode(t *testing.T) {
	fenced := []string{"-bench", "LL", "-variant", "Log+P+Sf", "-scale", "0.002"}
	checkRuns(t, []runCase{
		{"fleet size on a benchmark run", []string{"-bench", "LL", "-nodes", "5"}, false, "flags [-nodes] do not apply to -bench runs"},
		{"chaos on a benchmark run", []string{"-bench", "LL", "-nodes", "5", "-chaos-drop", "0.5"}, false, "flags [-chaos-drop -nodes] do not apply to -bench runs"},
		{"variant on a multi-core run", []string{"-cores", "2", "-variant", "Log+P"}, false, "flags [-variant] do not apply to -cores runs"},
		{"banks on a service run", []string{"-service", "-banks", "2"}, false, "flags [-banks] do not apply to -service runs"},
		{"service flags on a listing", []string{"-list", "-rate", "3"}, false, "flags [-rate] do not apply to -list runs"},
		{"positional argument", []string{"-bench", "LL", "extra"}, false, "unexpected arguments"},
		{"timeline capacity without a timeline", []string{"-bench", "LL", "-timeline-cap", "5"}, false, "-timeline-cap requires -timeline"},
		{"ssb on a fenced benchmark run", append(fenced, "-ssb", "64"), false, "-ssb: variant Log+P+Sf has no SP hardware"},
		{"checkpoints on a fenced benchmark run", append(fenced, "-checkpoints", "2"), false, "-checkpoints: variant Log+P+Sf has no SP hardware"},
		{"ssb on a fenced service run", []string{"-service", "-variant", "Log+P+Sf", "-ssb", "64"}, false, "ssb_entries 64"},
		{"ssb on a fenced vstore run", []string{"-service", "-bench", "VT", "-variant", "Log+P+Sf", "-ssb", "64"}, false, "ssb_entries 64"},
		{"ssb on a fenced cluster run", []string{"-cluster", "-variant", "Log+P", "-ssb", "64"}, false, "ssb_entries 64"},
		{"negative ssb on an SP benchmark run", []string{"-bench", "LL", "-ssb", "-5"}, false, "-ssb must be non-negative, got -5"},
		{"negative checkpoints on a multi-core run", []string{"-cores", "2", "-checkpoints", "-3"}, false, "-checkpoints must be non-negative, got -3"},
		{"ssb on an SP service run", []string{"-service", "-rate", "800", "-requests", "16", "-warmup", "16", "-ssb", "64"}, true, "service"},
	})
}
