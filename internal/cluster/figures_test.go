package cluster

import (
	"strings"
	"testing"

	"specpersist/internal/core"
)

// The tiny-grid tests shrink each default figure grid until it runs fast
// under -race, then pin its rendering to a testdata golden. Regenerate
// with
//
//	go test ./internal/cluster -run Tiny -update

func TestCapacityTableTinyGrid(t *testing.T) {
	sc := DefaultSweepConfig()
	sc.Base.Requests = 48
	sc.Base.Warmup = 32
	sc.Rates = []float64{150, 400}
	sc.Replicas = []int{1, 2}
	sc.Batches = []int{1}
	points, err := Sweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		if p.Result.Metrics != nil {
			t.Fatal("sweep points should drop the metrics snapshot")
		}
		wantW := p.Replicas/2 + 1
		if p.Quorum != wantW {
			t.Fatalf("R=%d point carries W=%d, want majority %d", p.Replicas, p.Quorum, wantW)
		}
	}
	checkGolden(t, "capacity.golden", []byte(CapacityTable(points).String()))
}

func TestRTTTableTinyGrid(t *testing.T) {
	sc := DefaultRTTSweepConfig()
	sc.Base.Requests = 48
	sc.Base.Warmup = 32
	sc.Rates = []float64{150, 400}
	sc.RTTs = []uint64{200, 3200}
	points, err := Sweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "rtt.golden", []byte(CapacityTable(points).String()))
}

func TestRejoinSweepTiny(t *testing.T) {
	rc := DefaultRejoinConfig()
	rc.Base.Requests = 192
	rc.Base.Rate = 300
	rc.RecoverAfters = []uint64{150_000, 500_000}
	points, err := Sweep(rc)
	if err != nil {
		t.Fatal(err)
	}
	// A longer outage misses at least as many updates.
	streamed := func(p SweepPoint) uint64 { return p.Result.PerNode[rc.Base.CrashNode].CatchupOps }
	for i := 0; i < len(points); i += 2 {
		if streamed(points[i+1]) < streamed(points[i]) {
			t.Fatalf("longer outage streamed fewer ops: %d then %d", streamed(points[i]), streamed(points[i+1]))
		}
	}
	checkGolden(t, "rejoin.golden", []byte(RejoinCurve(points).String()))
}

func TestChaosSweepTinyGrid(t *testing.T) {
	sc := DefaultChaosSweepConfig()
	sc.Base.Requests = 80
	sc.Rates = []float64{40}
	points, err := Sweep(sc)
	if err != nil {
		t.Fatal(err)
	}
	byLevel := map[string]SweepPoint{}
	for _, p := range points {
		if p.Variant == core.VariantSP.String() {
			byLevel[p.Level] = p
		}
	}
	if n, d := byLevel["none"].Result.P99, byLevel["drops"].Result.P99; d < n {
		t.Errorf("5%% drops improved p99: %d -> %d", n, d)
	}
	if st := byLevel["drops+partition"].Result.Stats; st.NetChaosCut == 0 {
		t.Error("partition level cut no messages")
	}
	checkGolden(t, "chaos.golden", []byte(ChaosCapacityTable(points).String()))
}

// TestSweepFailsUnrejoinedRecovery: a point that schedules a recovery
// fails when the crashed node never rejoins (here 90% drops starve its
// catch-up before the run drains), so a rejoin curve never plots a
// missing rejoin as zero. W=1 lets the surviving owners accept updates
// the crashed node misses: at W=2 those 90% drops expire the primaries'
// leases on it, so they refuse its ranges' updates and it has nothing to
// catch up.
func TestSweepFailsUnrejoinedRecovery(t *testing.T) {
	sc := DefaultChaosSweepConfig()
	sc.Base.Quorum = 1
	sc.Base.Requests = 48
	sc.Base.CrashAt = 100_000
	sc.Base.CrashNode = 1
	sc.Levels = []ChaosLevel{{Name: "lossy", Drop: 0.9}}
	sc.Rates = []float64{40}
	sc.Variants = []core.Variant{core.VariantSP}
	sc.RecoverAfters = []uint64{2_000_000}
	_, err := Sweep(sc)
	if err == nil || !strings.Contains(err.Error(), "node 1 never rejoined") {
		t.Fatalf("Sweep error %v, want node 1 never rejoined", err)
	}
}

// TestSustainsNeedsEveryRequest: a capacity point meets its SLO only when
// every offered request was quorum-acknowledged, so requests that timed
// out or were shed cannot flatter the tail.
func TestSustainsNeedsEveryRequest(t *testing.T) {
	p := SweepPoint{Rate: 100, Result: Result{P99: 1000, Stats: Stats{Offered: 10, Completed: 10}}}
	if !p.SLO().Sustains(1000) {
		t.Fatal("a point that completed every request within the SLO is not sustained")
	}
	for _, st := range []Stats{{Offered: 10, Completed: 9, TimedOut: 1}, {Offered: 10, Completed: 9, Shed: 1}} {
		p.Result.Stats = st
		if p.SLO().Sustains(1000) {
			t.Errorf("%+v counts as sustained", st)
		}
	}
}
