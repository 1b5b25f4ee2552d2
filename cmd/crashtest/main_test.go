package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specpersist/internal/fault"
)

// violatingPlan runs the Log+P negative control in-process and writes its
// first shrunk reproducer to a file, returning the file and the plan.
func violatingPlan(t *testing.T) (string, fault.Plan) {
	t.Helper()
	var out bytes.Buffer
	err := run([]string{"-variant", "Log+P", "-structures", "list", "-exhaustive", "-torn",
		"-warmup", "40", "-ops", "2", "-expect-violations", "-json"}, &out)
	if err != nil {
		t.Fatalf("Log+P control: %v", err)
	}
	var rep fault.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) == 0 || len(rep.Structures[0].Details) == 0 || rep.Structures[0].Details[0].Shrunk == nil {
		t.Fatal("Log+P control reported no shrunk reproducer")
	}
	plan := *rep.Structures[0].Details[0].Shrunk
	return writePlan(t, "min.json", plan), plan
}

func writePlan(t *testing.T, name string, p fault.Plan) string {
	t.Helper()
	blob, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayExitContract: -replay follows the exit contract of the other
// campaign CLIs. A violating reproducer passes only as an expected
// negative control; a clean plan fails as one.
func TestReplayExitContract(t *testing.T) {
	bad, plan := violatingPlan(t)
	plan.Variant = "Log+P+Sf"
	clean := writePlan(t, "clean.json", plan)

	var out bytes.Buffer
	if err := run([]string{"-replay", bad, "-expect-violations"}, &out); err != nil {
		t.Errorf("violating plan with -expect-violations: %v", err)
	}
	if !strings.Contains(out.String(), "VIOLATION") {
		t.Errorf("violating replay printed no violation:\n%s", out.String())
	}
	if err := run([]string{"-replay", clean, "-expect-violations"}, &bytes.Buffer{}); err == nil {
		t.Error("clean plan with -expect-violations passed")
	}
	if err := run([]string{"-replay", bad}, &bytes.Buffer{}); err == nil {
		t.Error("violating plan without -expect-violations passed")
	}
	if err := run([]string{"-replay", clean}, &bytes.Buffer{}); err != nil {
		t.Errorf("clean plan without -expect-violations: %v", err)
	}
}

// TestRejectsBadFlags: a flag the run's mode does not read, or a count
// below zero, is an error naming the flag, reported before any work.
// -samples -1 used to run an exhaustive campaign of zero trials and pass.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-replay", "plan.json", "-exhaustive"}, "flags [-exhaustive] do not apply to -replay runs"},
		{[]string{"-spdiff", "-variant", "Log+P"}, "flags [-variant] do not apply to -spdiff runs"},
		{[]string{"-spdiff", "-json", "-torn"}, "flags [-json -torn] do not apply to -spdiff runs"},
		{[]string{"-probe", "real"}, "flags [-probe] do not apply to campaign runs"},
		{[]string{"-exhaustive", "-samples", "-1"}, "-samples must be non-negative, got -1"},
		{[]string{"-trials", "-1"}, "-trials must be non-negative"},
		{[]string{"-ops", "-1"}, "-ops must be non-negative"},
		{[]string{"-warmup", "-1"}, "-warmup must be non-negative"},
		{[]string{"-workers", "-1"}, "-workers must be non-negative"},
		{[]string{"-max-violations", "-1"}, "-max-violations must be non-negative"},
		{[]string{"-exhaustive", "extra"}, "unexpected arguments"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q before rejecting", tc.args, out.String())
		}
	}
}
