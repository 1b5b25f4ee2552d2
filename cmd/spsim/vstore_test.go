package main

import (
	"strings"
	"testing"

	"specpersist/internal/service"
)

// vstoreServingConfig parses a -vstore command line (the mode flag, then
// args) and assembles its serving configuration.
func vstoreServingConfig(args ...string) (service.Config, error) {
	o, _, err := parse(append([]string{"-vstore"}, args...))
	if err != nil {
		return service.Config{}, err
	}
	return vstoreConfig(o)
}

func TestBuildVstoreConfigValid(t *testing.T) {
	cfg, err := vstoreServingConfig()
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if cfg.Structure != "VT" {
		t.Errorf("structure not pinned to VT: %+v", cfg)
	}
}

func TestBuildVstoreConfigRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown variant", []string{"-variant", "Warp"}, "variant"},
		{"non-durable variant", []string{"-variant", "Base"}, "durable"},
		{"negative cores", []string{"-cores", "-1"}, "-cores"},
		{"negative deadline", []string{"-batch-deadline", "-5"}, "-batch-deadline"},
		{"zero rate", []string{"-rate", "0"}, "rate"},
		{"negative batch", []string{"-batch", "-2"}, "batch"},
		{"bad get fraction", []string{"-get-frac", "2"}, "get fraction"},
		{"unknown process", []string{"-process", "steady"}, "process"},
	}
	for _, tc := range cases {
		_, err := vstoreServingConfig(tc.args...)
		if err == nil {
			t.Errorf("%s: accepted %v", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestBuildVstoreConfigRejectsForeignModeFlags: every foreign-mode flag —
// including -service, the WAL-only -log-cap, the benchmark selector -bench
// and the timeline a -vstore run never records — must clash loudly with
// -vstore, never be silently ignored.
func TestBuildVstoreConfigRejectsForeignModeFlags(t *testing.T) {
	foreign := []string{"service", "bench", "log-cap", "timeline", "timeline-cap"}
	for _, name := range serviceForeignFlags {
		if name != "vstore" {
			foreign = append(foreign, name)
		}
	}
	for _, name := range foreign {
		_, err := vstoreServingConfig(explicit(name))
		if err == nil {
			t.Errorf("-%s alongside -vstore was accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("clash error %q does not name -%s", err, name)
		}
	}
	_, err := vstoreServingConfig("-bench", "LL", "-log-cap", "128")
	if err == nil || !strings.Contains(err.Error(), "-bench") || !strings.Contains(err.Error(), "-log-cap") {
		t.Errorf("multi-flag clash error %v must list every offending flag", err)
	}
}

// TestVstoreModeExitCodes: invalid combinations fail with a diagnostic
// naming the offender, and a small valid run succeeds and reports
// changeset commits.
func TestVstoreModeExitCodes(t *testing.T) {
	checkRuns(t, []runCase{
		{"valid run", []string{"-vstore", "-rate", "800", "-requests", "16", "-warmup", "16"}, true, "changeset commits"},
		{"bench clash", []string{"-vstore", "-bench", "BT"}, false, "-bench"},
		{"service clash", []string{"-vstore", "-service"}, false, "-service"},
		{"log-cap clash", []string{"-vstore", "-log-cap", "128"}, false, "-log-cap"},
		{"bad variant", []string{"-vstore", "-variant", "Base"}, false, "durable"},
	})
}
