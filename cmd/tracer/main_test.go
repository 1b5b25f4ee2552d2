package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/trace"
	"specpersist/internal/workload"
)

// TestReplayReproducesRun: a recording of a benchmark replays to exactly
// the cpu.Stats workload.Run reports for the same bench, variant, scale,
// seed and preamble — the recorder populates and scales the structure,
// draws keys and emits the preamble as the harness does.
func TestReplayReproducesRun(t *testing.T) {
	for _, tc := range []struct {
		bench    string
		variant  core.Variant
		scale    float64
		overhead int
	}{
		{"LL", core.VariantLogPSf, 0.002, 0},
		{"HM", core.VariantSP, 0.002, 100},
		{"SS", core.VariantSP, 0.0005, -1},
	} {
		b, err := workload.FindBench(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		w, err := trace.NewWriter(&file)
		if err != nil {
			t.Fatal(err)
		}
		if err := recordWorkload(b, tc.variant, tc.scale, 3, tc.overhead, w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewReader(&file)
		if err != nil {
			t.Fatal(err)
		}
		got := replaySystem(options{sp: tc.variant.Speculative(), ssb: 256, checkpoints: 4, controllers: 1}, nil).Run(r)
		if err := r.Err(); err != nil {
			t.Fatal(err)
		}
		want := workload.MustRun(b, workload.RunConfig{Variant: tc.variant, Scale: tc.scale, Seed: 3, OpOverhead: tc.overhead}).Stats
		if got != want {
			t.Errorf("%s/%v: replay diverges from workload.Run:\nreplay %+v\nrun    %+v", tc.bench, tc.variant, got, want)
		}
	}
}

// TestRecordTwiceIdentical: a second recording in the same process forks
// the image the first one populated, and must write the same bytes.
func TestRecordTwiceIdentical(t *testing.T) {
	b, err := workload.FindBench("HM")
	if err != nil {
		t.Fatal(err)
	}
	var files [2]bytes.Buffer
	for i := range files {
		w, err := trace.NewWriter(&files[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := recordWorkload(b, core.VariantLogPSf, 0.002, 5, 100, w); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if files[0].Len() == 0 || !bytes.Equal(files[0].Bytes(), files[1].Bytes()) {
		t.Errorf("two recordings differ: %d and %d bytes", files[0].Len(), files[1].Len())
	}
}

// TestRunRecordReplay drives the subcommands in-process: a recording
// replays under the default machine and under an SP machine with every
// hardware flag set, and info counts what record wrote.
func TestRunRecordReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ll.sptrace")
	var out bytes.Buffer
	if err := run([]string{"record", "-bench", "LL", "-scale", "0.001", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "recorded ") {
		t.Errorf("record printed %q", out.String())
	}
	for _, args := range [][]string{
		{"replay", "-i", path},
		{"replay", "-i", path, "-sp", "-ssb", "128", "-checkpoints", "8", "-controllers", "2"},
		{"info", "-i", path},
	} {
		out.Reset()
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if out.Len() == 0 {
			t.Errorf("%v printed nothing", args)
		}
	}
}

// TestRunRejects: a subcommand refuses hardware sizes below one, SP sizes
// without -sp, flags another subcommand reads, positional arguments and
// unknown subcommands, each with an error naming the cause.
func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage"},
		{[]string{"dump"}, `unknown subcommand "dump"`},
		{[]string{"replay", "-sp", "-ssb", "0"}, "-ssb must be at least 1, got 0"},
		{[]string{"replay", "-sp", "-checkpoints", "-1"}, "-checkpoints must be at least 1, got -1"},
		{[]string{"replay", "-controllers", "0"}, "-controllers must be at least 1, got 0"},
		{[]string{"replay", "-ssb", "64"}, "-ssb requires -sp"},
		{[]string{"replay", "-checkpoints", "8"}, "-checkpoints requires -sp"},
		{[]string{"replay", "-sp=false", "-ssb", "64"}, "-ssb requires -sp"},
		{[]string{"replay", "-sp=false", "-checkpoints", "8"}, "-checkpoints requires -sp"},
		{[]string{"replay", "-bench", "HM"}, "flags [-bench] do not apply to replay runs"},
		{[]string{"info", "-sp"}, "flags [-sp] do not apply to info runs"},
		{[]string{"record", "-i", "x"}, "flags [-i] do not apply to record runs"},
		{[]string{"replay", "extra"}, "unexpected arguments"},
	} {
		err := run(tc.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: got %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
