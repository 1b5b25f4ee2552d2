package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specpersist/internal/service"
)

// vstoreServingConfig parses a -service -bench VT command line (then
// args) and assembles its serving configuration.
func vstoreServingConfig(args ...string) (service.Config, error) {
	return serviceConfig(append([]string{"-bench", "VT"}, args...)...)
}

func TestBuildVstoreConfigValid(t *testing.T) {
	cfg, err := vstoreServingConfig()
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if cfg.Structure != "VT" {
		t.Errorf("structure is not VT: %+v", cfg)
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

// TestBuildVstoreConfigRejectsForeignModeFlags: every flag a -service run
// does not read, and the undo-log -log-cap that VT does not read, must
// be refused by name on a VT serving run, never silently ignored, even
// when set to its default.
func TestBuildVstoreConfigRejectsForeignModeFlags(t *testing.T) {
	for _, name := range append([]string{"log-cap"}, serviceForeignFlags...) {
		_, err := vstoreServingConfig(explicit(name))
		if err == nil {
			t.Errorf("-%s on a VT serving run was accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("clash error %q does not name -%s", err, name)
		}
	}
}

// TestVstoreModeExitCodes: invalid VT serving runs fail with a diagnostic
// naming the offender, in both serving modes, and small valid runs
// succeed and report changeset commits.
func TestVstoreModeExitCodes(t *testing.T) {
	small := []string{"-bench", "VT", "-rate", "800", "-requests", "16", "-warmup", "16"}
	checkRuns(t, []runCase{
		{"valid run", append([]string{"-service"}, small...), true, "changeset commits"},
		{"valid fleet run", append([]string{"-cluster"}, small...), true, "changeset commits"},
		{"log-cap clash", []string{"-service", "-bench", "VT", "-log-cap", "128"}, false, "flags [-log-cap] do not apply to -bench VT"},
		{"log-cap clash on a fleet", []string{"-cluster", "-bench", "VT", "-log-cap", "128"}, false, "flags [-log-cap] do not apply to -bench VT"},
		{"bad variant", []string{"-service", "-bench", "VT", "-variant", "Base"}, false, "durable"},
	})
}

// TestVstoreTimeline: -timeline records a VT serving run as a non-empty
// Chrome trace.
func TestVstoreTimeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "vt.json")
	args := []string{"-service", "-bench", "VT", "-rate", "800", "-requests", "16", "-warmup", "16", "-timeline", path}
	if err := run(args, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("timeline is not trace JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("timeline holds no events")
	}
}
