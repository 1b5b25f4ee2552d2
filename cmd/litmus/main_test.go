package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI in-process with stdout redirected to a temp file
// and returns what it printed plus the returned error.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "litmus-out-*")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	blob, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(blob), runErr
}

func TestCampaignStrictClean(t *testing.T) {
	out, err := capture(t, "-programs", "30", "-seed", "3")
	if err != nil {
		t.Fatalf("strict campaign failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "violations           0") {
		t.Fatalf("expected a zero-violation summary, got:\n%s", out)
	}
}

// TestWorkersByteDeterminism: the -json campaign document must be
// byte-identical at -workers 1 and -workers 8.
func TestWorkersByteDeterminism(t *testing.T) {
	one, err := capture(t, "-programs", "30", "-seed", "5", "-workers", "1", "-json")
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	eight, err := capture(t, "-programs", "30", "-seed", "5", "-workers", "8", "-json")
	if err != nil {
		t.Fatalf("workers=8: %v", err)
	}
	if one != eight {
		t.Fatalf("campaign JSON differs between -workers 1 and -workers 8")
	}
	if !strings.Contains(one, "\"violations\": 0") {
		t.Fatalf("expected zero violations in:\n%s", one)
	}
}

// TestNegativeControlRoundTrip: the weakened reference must be caught,
// shrunk, written to -out, and the written reproducer must replay.
func TestNegativeControlRoundTrip(t *testing.T) {
	outFile := filepath.Join(t.TempDir(), "minimal.json")
	out, err := capture(t, "-programs", "0", "-weaken-ref", "-expect-violations", "-out", outFile)
	if err != nil {
		t.Fatalf("negative control did not trip: %v\n%s", err, out)
	}
	if !strings.Contains(out, "reproducer written to") {
		t.Fatalf("no reproducer reported:\n%s", out)
	}
	rep, err := capture(t, "-replay", outFile, "-expect-violations")
	if err != nil {
		t.Fatalf("reproducer replay: %v\n%s", err, rep)
	}
	if !strings.Contains(rep, "reproduced           yes") {
		t.Fatalf("reproducer did not reproduce:\n%s", rep)
	}
}

// TestExpectViolationsFailsWhenClean: -expect-violations on a healthy
// strict campaign must fail — the negative control cannot pass vacuously.
func TestExpectViolationsFailsWhenClean(t *testing.T) {
	if _, err := capture(t, "-programs", "5", "-expect-violations"); err == nil {
		t.Fatal("-expect-violations succeeded on a clean campaign")
	}
}

func TestRejectsPositionalArgs(t *testing.T) {
	if _, err := capture(t, "extra"); err == nil {
		t.Fatal("positional argument accepted")
	}
}

// TestRejectsBadFlags: negative counts and budgets are refused before any
// work starts, in campaign and in replay mode alike.
func TestRejectsBadFlags(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "rep.json")
	if err := os.WriteFile(rep, []byte(`{"program":{"name":"x","locs":[{"name":"a","line":0,"off":0,"size":8}],"threads":[[{"op":"st","loc":"a","val":1}]]},"kind":"outcome-not-allowed"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, flag := range []string{"-programs", "-workers", "-max-states", "-shrink-budget"} {
		for _, mode := range [][]string{{"-programs", "0", "-curated=false"}, {"-replay", rep}} {
			args := append(append([]string(nil), mode...), flag, "-1")
			out, err := capture(t, args...)
			if err == nil || !strings.Contains(err.Error(), flag+" must be non-negative") {
				t.Errorf("%v: err = %v, want a %s rejection", args, err, flag)
			}
			if out != "" {
				t.Errorf("%v: printed %q before rejecting", args, out)
			}
		}
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{\"program\":{\"threads\":[]}}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, "-replay", bad); err == nil {
		t.Fatal("invalid reproducer accepted")
	}
}

// TestSummaryLineCountsAllPrograms: the text summary's violation line
// names the violating programs out of every program run, so a clean
// campaign does not read as if nothing ran.
func TestSummaryLineCountsAllPrograms(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-programs", "0"}, "violations           0 in 0 of 5 programs\n"},
		{[]string{"-programs", "0", "-weaken-ref", "-expect-violations"}, "violations           33 in 5 of 5 programs\n"},
	} {
		out, err := capture(t, tc.args...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%v: summary lacks %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestRejectsFlagsForeignToMode: a campaign flag on a -replay run is an
// error naming the flag, not silently ignored.
func TestRejectsFlagsForeignToMode(t *testing.T) {
	rep := filepath.Join(t.TempDir(), "rep.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-replay", rep, "-programs", "3"}, "flags [-programs] do not apply to -replay runs"},
		{[]string{"-replay", rep, "-weaken-ref", "-seed", "2"}, "flags [-seed -weaken-ref] do not apply to -replay runs"},
	} {
		out, err := capture(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
		if out != "" {
			t.Errorf("%v: printed %q before rejecting", tc.args, out)
		}
	}
}
