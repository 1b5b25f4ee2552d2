package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"sort"
	"testing"

	"specpersist/internal/pstruct"
)

// testSize keeps a round of every workload short. The campaigns round
// still runs the full crash campaign over every structure at one probed
// operation, and all four negative controls.
var testSize = sizes{suiteScale: 0.0005, fleetRequests: 400, faultStructures: pstruct.AllNames(), faultOps: 1, litmusPrograms: 4, chaosTrials: 2}

func digestOf(t *testing.T, name string, seed int64, workers int) string {
	t.Helper()
	b, err := newBench(name, seed, testSize, workers)
	if err != nil {
		t.Fatal(err)
	}
	r := b.run(&tracer{})
	if r.failed > 0 || len(r.problems) > 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", name, seed, r.failed, r.attempted, r.problems)
	}
	return r.digest
}

// TestDigestFollowsSeed: the same seed gives the same digest, and another
// seed gives another, which proves the seed reaches the inputs.
func TestDigestFollowsSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, b, c := digestOf(t, name, 1, workers), digestOf(t, name, 1, workers), digestOf(t, name, 2, workers)
		if a != b {
			t.Errorf("%s: seed 1 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same digest %s", name, a)
		}
	}
}

// TestCampaignDigestIgnoresWorkers: the campaign engines promise the same
// results at any worker count.
func TestCampaignDigestIgnoresWorkers(t *testing.T) {
	if one, two := digestOf(t, "campaigns", 3, 1), digestOf(t, "campaigns", 3, 2); one != two {
		t.Fatalf("campaigns digest %s at 1 worker, %s at 2", one, two)
	}
}

// TestFoldSumsToTotal: every profiled millisecond lands in exactly one
// layer.
func TestFoldSumsToTotal(t *testing.T) {
	b, err := newBench("paper-suite", 1, testSize, workers)
	if err != nil {
		t.Fatal(err)
	}
	f := newFold()
	if _, err := f.profile(func() *round { return b.run(&tracer{}) }); err != nil {
		t.Fatal(err)
	}
	if f.total <= 0 {
		t.Fatal("profile folded no samples")
	}
	if len(f.layer) != len(layerNames) {
		t.Fatalf("fold produced %d buckets, want %d", len(f.layer), len(layerNames))
	}
	sum := 0.0
	for _, v := range f.layer {
		sum += v
	}
	if math.Abs(sum-f.total) > 1e-6*f.total {
		t.Fatalf("layers sum to %g ms, profile total %g ms", sum, f.total)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"specpersist/internal/cpu.(*CPU).Run":       "cpu",
		"specpersist/internal/sweep.Pool.func1":     "sweep",
		"specpersist/internal/memctl.(*WPQ).Push":   "memctl",
		"specpersist/internal/sched.(*Heap).Pop":    "other",
		"specpersist/internal/litmus/x.F":           "litmus",
		"main.(*bench).run":                         "bench",
		"runtime.mallocgc":                          "",
		"internal/runtime/maps.(*Map).getWithKeySm": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, b := range [][]byte{{0x0a}, {0x12, 0x05, 0x01}, {0x0b}, {0xff}} {
		if _, err := parseProfile(b); err == nil {
			t.Errorf("parseProfile(%x) accepted a malformed message", b)
		}
	}
}

// TestMetricsMatchBenchmarkJSON: the metrics and workloads the program
// reports are exactly the ones BENCHMARK.json declares, with the same
// units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []declared `json:"workloads"`
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := names, workloadNames; !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", got, want)
	}
	for _, c := range []struct {
		kind string
		decl []declared
		have []counter
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer()}} {
		var got, want []string
		for _, d := range c.decl {
			got = append(got, d.Name+" "+d.Unit)
		}
		for _, m := range c.have {
			want = append(want, m.name+" "+m.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: BENCHMARK.json declares\n%v\nthe program reports\n%v", c.kind, got, want)
		}
	}
}
