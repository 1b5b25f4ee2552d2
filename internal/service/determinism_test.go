package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"specpersist/internal/core"
)

func resultJSON(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestRunDeterminism: the same configuration must produce byte-identical
// JSON on repeated runs, including the multi-core schedule. Run with -race
// in CI.
func TestRunDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Variant = core.VariantSP
	cfg.Rate = 800
	cfg.Requests = 96
	cfg.Cores = 2
	cfg.BatchMax = 4
	cfg.BatchDeadline = 2000
	a := resultJSON(t, cfg)
	b := resultJSON(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestSweepWorkerIndependence: LatencySweep output must not depend on the
// worker count — results are indexed by grid position, so 1 worker and
// many workers must serialize identically byte for byte — and the
// rendered tables and curves must match testdata/latency.golden.
func TestSweepWorkerIndependence(t *testing.T) {
	sc := DefaultSweepConfig()
	sc.Base.Requests = 48
	sc.Base.Warmup = 32
	sc.Rates = []float64{200, 600}
	sc.Batches = []int{1, 4}
	var points []SweepPoint
	sweepJSON := func(workers int) []byte {
		sc.Workers = workers
		var err error
		points, err = LatencySweep(sc)
		if err != nil {
			t.Fatalf("sweep with %d workers: %v", workers, err)
		}
		b, err := json.Marshal(points)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := sweepJSON(1)
	many := sweepJSON(8)
	auto := sweepJSON(0)
	if !bytes.Equal(one, many) || !bytes.Equal(one, auto) {
		t.Fatal("sweep output depends on the worker count")
	}
	var buf bytes.Buffer
	buf.WriteString(LatencyTable(points).String())
	buf.WriteString(SLOTable(points).String())
	for _, b := range sc.Batches {
		buf.WriteString(ThroughputLatencyCurve(points, b, 1).String())
	}
	buf.WriteString(LatencyCDFChart(points, sc.Rates[1], sc.Batches[0], 1).String())
	checkGolden(t, "latency.golden", buf.Bytes())
}

// TestVstoreSweepWorkerIndependence: the BT-vs-VT comparison sweep and both
// rendered tables must be byte-identical at any worker count, and the
// tables must match testdata/vstore.golden. Run with -race in CI.
func TestVstoreSweepWorkerIndependence(t *testing.T) {
	sc := DefaultVstoreSweepConfig()
	sc.Base.Requests = 48
	sc.Base.Warmup = 32
	sc.Rates = []float64{200, 600}
	sc.Batches = []int{1, 4}
	render := func(workers int) (points, tables []byte) {
		sc.Workers = workers
		ps, err := LatencySweep(sc)
		if err != nil {
			t.Fatalf("sweep with %d workers: %v", workers, err)
		}
		pj, err := json.Marshal(ps)
		if err != nil {
			t.Fatal(err)
		}
		return pj, []byte(VstoreTable(ps).String() + VstoreCapacityTable(ps).String())
	}
	onePoints, one := render(1)
	for _, workers := range []int{8, 0} {
		if p, tbl := render(workers); !bytes.Equal(onePoints, p) || !bytes.Equal(one, tbl) {
			t.Fatalf("vstore sweep output at %d workers differs from 1 worker", workers)
		}
	}
	checkGolden(t, "vstore.golden", one)
}
