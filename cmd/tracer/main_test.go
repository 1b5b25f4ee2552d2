package main

import (
	"bytes"
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
		got := replaySystem(tc.variant.Speculative(), 256, 4, 1, nil).Run(r)
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
