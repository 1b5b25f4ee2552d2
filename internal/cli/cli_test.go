package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const (
	runMode Mode = 1 << iota
	replayMode
)

type opts struct {
	trials  int
	seed    int64
	rate    float64
	replay  string
	jsonOut bool
	out     string
	outCap  int
	verbose bool
	level   int
}

func newTestSet(o *opts) *Set {
	s := NewSet("test", "campaign", "-replay")
	s.Int(&o.trials, "trials", 10, runMode, "trials").Min(1)
	s.Int64(&o.seed, "seed", 1, runMode, "seed").Min(0)
	s.Float64(&o.rate, "rate", 0, runMode, "rate")
	s.String(&o.replay, "replay", "", replayMode, "replay file")
	s.Bool(&o.jsonOut, "json", false, runMode|replayMode, "json")
	s.String(&o.out, "out", "", runMode, "output file")
	s.Int(&o.outCap, "out-cap", 8, runMode, "output capacity").Min(1).Requires("out")
	s.Bool(&o.verbose, "verbose", false, runMode, "verbose")
	s.Int(&o.level, "level", 1, runMode, "verbosity level").Requires("verbose")
	return s
}

// TestCheck: bounds apply to explicitly set flags, before the mode check;
// a mode check names every foreign flag, sorted, with the mode's name; a
// flag that requires another is rejected, after both, unless the other is
// set to true or to a non-empty value.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		args []string
		mode Mode
		want string // "" = accepted
	}{
		{nil, runMode, ""},
		{[]string{"-trials", "3", "-json"}, runMode, ""},
		{[]string{"-replay", "f", "-json"}, replayMode, ""},
		{[]string{"-trials", "0"}, runMode, "-trials must be at least 1, got 0"},
		{[]string{"-seed", "-2"}, runMode, "-seed must be non-negative, got -2"},
		{[]string{"-replay", "f", "-seed", "-2"}, replayMode, "-seed must be non-negative, got -2"},
		{[]string{"-replay", "f", "-trials", "3", "-rate", "1"}, replayMode, "flags [-rate -trials] do not apply to -replay runs"},
		{[]string{"-replay", "f"}, runMode, "flags [-replay] do not apply to campaign runs"},
		{[]string{"-out", "f", "-out-cap", "3"}, runMode, ""},
		{[]string{"-out-cap", "3"}, runMode, "-out-cap requires -out"},
		{[]string{"-out", "", "-out-cap", "3"}, runMode, "-out-cap requires -out"},
		{[]string{"-verbose", "-level", "3"}, runMode, ""},
		{[]string{"-verbose=false", "-level", "3"}, runMode, "-level requires -verbose"},
		{[]string{"-level", "3"}, runMode, "-level requires -verbose"},
		{[]string{"-out-cap", "0"}, runMode, "-out-cap must be at least 1, got 0"},
		{[]string{"-replay", "f", "-out-cap", "3"}, replayMode, "flags [-out-cap] do not apply to -replay runs"},
	} {
		var o opts
		s := newTestSet(&o)
		if err := s.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		err := s.Check(tc.mode)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v: rejected: %v", tc.args, err)
		case tc.want != "" && (err == nil || err.Error() != tc.want):
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestParseRejectsPositionalArgs(t *testing.T) {
	var o opts
	if err := newTestSet(&o).Parse([]string{"-trials", "2", "extra"}); err == nil || !strings.Contains(err.Error(), "unexpected arguments") {
		t.Fatalf("positional argument: err = %v", err)
	}
}

func TestGiven(t *testing.T) {
	var o opts
	s := newTestSet(&o)
	if err := s.Parse([]string{"-seed", "1", "-json", "-rate", "0"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Given("rate", "trials", "seed"); strings.Join(got, " ") != "-rate -seed" {
		t.Fatalf("Given = %v, want [-rate -seed]", got)
	}
}

func TestExit(t *testing.T) {
	for _, tc := range []struct {
		expect     bool
		violations int
		fail       bool
	}{
		{false, 0, false},
		{false, 2, true},
		{true, 0, true},
		{true, 2, false},
	} {
		if err := Exit(tc.expect, tc.violations); (err != nil) != tc.fail {
			t.Errorf("Exit(%v, %d) = %v", tc.expect, tc.violations, err)
		}
	}
}

// TestJSONRoundTrip: WriteJSON emits what json.MarshalIndent does plus a
// newline, the file form matches it, and ReadJSON reads it back, running
// the validate hook on the decoded value.
func TestJSONRoundTrip(t *testing.T) {
	v := map[string]any{"a": 1, "b": []int{2, 3}, "c": "<&>"}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, v); err != nil {
		t.Fatal(err)
	}
	want, _ := json.MarshalIndent(v, "", "  ")
	if buf.String() != string(want)+"\n" {
		t.Fatalf("WriteJSON wrote %q, want %q", buf.String(), want)
	}
	path := filepath.Join(t.TempDir(), "v.json")
	if err := WriteJSONFile(path, v); err != nil {
		t.Fatal(err)
	}
	if blob, _ := os.ReadFile(path); !bytes.Equal(blob, buf.Bytes()) {
		t.Fatalf("WriteJSONFile wrote %q", blob)
	}
	var back map[string]any
	if err := ReadJSON("replay", path, &back, func() error {
		if back["c"] != "<&>" {
			return errors.New("hook ran before decoding")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bad := errors.New("invalid")
	if err := ReadJSON("replay", path, &back, func() error { return bad }); !errors.Is(err, bad) || !strings.HasPrefix(err.Error(), "-replay "+path+": ") {
		t.Fatalf("validate error: %v", err)
	}
	if err := ReadJSON("replay", path+".missing", &back, nil); err == nil || !strings.Contains(err.Error(), "-replay") {
		t.Fatalf("missing file: %v", err)
	}
}
