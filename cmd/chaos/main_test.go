package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specpersist/internal/cluster"
)

// TestRunSmallCampaignClean: a few healthy trials audit clean and the
// command returns nil.
func TestRunSmallCampaignClean(t *testing.T) {
	if err := run([]string{"-trials", "4", "-seed", "3"}, io.Discard); err != nil {
		t.Fatalf("clean campaign failed: %v", err)
	}
}

// TestRunNegativeControl: -break-dedup must surface violations, the
// shrunk reproducer must land in -out, and the exit contract must flip
// with -expect-violations.
func TestRunNegativeControl(t *testing.T) {
	out := t.TempDir() + "/minimal.json"
	err := run([]string{"-trials", "8", "-seed", "7", "-break-dedup", "-out", out, "-shrink-budget", "60"}, io.Discard)
	if err == nil {
		t.Fatal("broken-dedup campaign exited clean")
	}
	if !strings.Contains(err.Error(), "violation") {
		t.Fatalf("failure does not mention violations: %v", err)
	}
	blob, rerr := os.ReadFile(out)
	if rerr != nil {
		t.Fatalf("no reproducer written: %v", rerr)
	}
	var min cluster.Config
	if jerr := json.Unmarshal(blob, &min); jerr != nil {
		t.Fatalf("reproducer is not a config: %v", jerr)
	}
	if !min.BreakDedup {
		t.Error("reproducer lost the broken-dedup knob")
	}

	// The same campaign as an expected negative control passes...
	if err := run([]string{"-trials", "8", "-seed", "7", "-break-dedup", "-expect-violations"}, io.Discard); err != nil {
		t.Fatalf("-expect-violations rejected a violating campaign: %v", err)
	}
	// ...and a healthy campaign under -expect-violations fails.
	if err := run([]string{"-trials", "2", "-seed", "3", "-expect-violations"}, io.Discard); err == nil {
		t.Fatal("-expect-violations passed a clean campaign")
	}

	// The written reproducer replays to a violation.
	if err := run([]string{"-replay", out, "-expect-violations"}, io.Discard); err != nil {
		t.Fatalf("minimized reproducer did not replay: %v", err)
	}
}

// TestRunRejectsBadFlags: user errors exit with diagnostics, not runs.
func TestRunRejectsBadFlags(t *testing.T) {
	wrapping := filepath.Join(t.TempDir(), "wrap.json")
	cfg := cluster.DefaultChaosBase()
	cfg.CrashAt = 120_000
	cfg.RecoverAfter = math.MaxUint64 - 60_000
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrapping, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	tinyLog := filepath.Join(t.TempDir(), "tiny-log.json")
	if err := os.WriteFile(tinyLog, []byte(`{"structure":"HM","variant":4,"rate":50,"requests":8,"warmup":8,"log_cap":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fencedSSB := filepath.Join(t.TempDir(), "fenced-ssb.json")
	if err := os.WriteFile(fencedSSB, []byte(`{"structure":"HM","variant":3,"rate":50,"requests":8,"warmup":8,"ssb_entries":64}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero trials", []string{"-trials", "0"}, "-trials"},
		{"bad variant", []string{"-variant", "Warp"}, "variant"},
		{"positional junk", []string{"-trials", "2", "extra"}, "unexpected"},
		{"missing replay file", []string{"-replay", "nope.json"}, "nope.json"},
		{"replay with a wrapping recovery cycle", []string{"-replay", wrapping}, "overflows"},
		{"negative workers", []string{"-workers", "-1"}, "-workers must be non-negative"},
		{"negative rate", []string{"-rate", "-5"}, "rate"},
		{"negative shrink budget", []string{"-shrink-budget", "-1"}, "-shrink-budget must be non-negative"},
		{"campaign flag on a replay", []string{"-replay", wrapping, "-trials", "5"}, "flags [-trials] do not apply to -replay runs"},
		{"replay config with a one-entry undo log", []string{"-replay", tinyLog}, "log capacity 1 exceeded"},
		{"replay config sizing an SSB on Log+P+Sf", []string{"-replay", fencedSSB}, "ssb_entries 64"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil {
			t.Errorf("%s: accepted %v", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if out.Len() > 0 {
			t.Errorf("%s: printed %q before rejecting", tc.name, out.String())
		}
	}
}

// TestCampaignJSONDocument: -json emits the campaign summary with every
// trial present.
func TestCampaignJSONDocument(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-trials", "3", "-seed", "3", "-json"}, &out); err != nil {
		t.Fatalf("json campaign failed: %v\n%s", err, out.String())
	}
	var doc jsonDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	if doc.Campaign == nil || len(doc.Campaign.Trials) != 3 {
		t.Fatalf("campaign document incomplete: %+v", doc.Campaign)
	}
	if doc.Campaign.Violations != 0 {
		t.Fatalf("healthy campaign reported %d violations", doc.Campaign.Violations)
	}
}

// TestSummaryLineCountsAllTrials: the text summary's violation line names
// the violating trials out of every trial run, so a clean campaign does not
// read as if nothing ran.
func TestSummaryLineCountsAllTrials(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "3", "-seed", "3"}, "violations           0 in 0 of 3 trials\n"},
		{[]string{"-trials", "8", "-seed", "7", "-break-dedup", "-expect-violations", "-shrink-budget", "10"},
			"violations           713 in 8 of 8 trials\n"},
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("%v: %v\n%s", tc.args, err, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%v: summary lacks %q:\n%s", tc.args, tc.want, out.String())
		}
	}
}
