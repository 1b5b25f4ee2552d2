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
