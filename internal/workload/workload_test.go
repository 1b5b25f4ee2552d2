package workload

import (
	"strings"
	"testing"

	"specpersist/internal/core"
)

// tinyRC keeps unit-test runs fast: minimal scale, short preamble.
func tinyRC(v core.Variant) RunConfig {
	return RunConfig{Variant: v, Scale: 0.002, Seed: 7, OpOverhead: 50, MaxTraceOps: 60}
}

func TestTable1MatchesPaper(t *testing.T) {
	want := map[string][2]int{
		"GH": {2600000, 100000},
		"HM": {1500000, 100000},
		"LL": {500, 50000},
		"SS": {120000, 500000},
		"AT": {1000000, 50000},
		"BT": {1000000, 50000},
		"RT": {1500000, 50000},
	}
	benches := Table1()
	if len(benches) != 7 {
		t.Fatalf("Table1 has %d benchmarks", len(benches))
	}
	for _, b := range benches {
		w, ok := want[b.Name]
		if !ok {
			t.Errorf("unexpected benchmark %q", b.Name)
			continue
		}
		if b.InitOps != w[0] || b.SimOps != w[1] {
			t.Errorf("%s: ops %d/%d, want %d/%d", b.Name, b.InitOps, b.SimOps, w[0], w[1])
		}
	}
}

func TestFindBench(t *testing.T) {
	b, err := FindBench("RT")
	if err != nil || b.Name != "RT" {
		t.Fatalf("FindBench(RT) = %v, %v", b, err)
	}
	if _, err := FindBench("XX"); err == nil {
		t.Error("FindBench accepted unknown name")
	}
}

func TestRunAllBenchesAllVariants(t *testing.T) {
	for _, b := range Table1() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			for _, v := range core.Variants() {
				r, err := Run(b, tinyRC(v))
				if err != nil {
					t.Fatalf("%s/%s: %v", b.Name, v, err)
				}
				if r.Stats.Cycles == 0 || r.Stats.Committed == 0 {
					t.Fatalf("%s/%s: empty stats", b.Name, v)
				}
				if v == core.VariantSP && r.Stats.SpecEntries == 0 {
					t.Errorf("%s/SP never speculated", b.Name)
				}
				if v.Level() == 0 && r.Stats.Pcommits != 0 { // Base/Log
					t.Errorf("%s/%s executed pcommits", b.Name, v)
				}
			}
		})
	}
}

func TestVariantOrdering(t *testing.T) {
	// For a barrier-heavy benchmark: Base <= Log <= Log+P and
	// SP < Log+P+Sf (the point of the paper).
	b, _ := FindBench("LL")
	rc := func(v core.Variant) RunConfig {
		return RunConfig{Variant: v, Scale: 0.01, Seed: 3, OpOverhead: 400}
	}
	cycles := make(map[core.Variant]uint64)
	for _, v := range core.Variants() {
		cycles[v] = MustRun(b, rc(v)).Stats.Cycles
	}
	if cycles[core.VariantLog] < cycles[core.VariantBase] {
		t.Errorf("Log (%d) faster than Base (%d)", cycles[core.VariantLog], cycles[core.VariantBase])
	}
	if cycles[core.VariantLogPSf] <= cycles[core.VariantLogP] {
		t.Errorf("fences free: Log+P+Sf %d vs Log+P %d", cycles[core.VariantLogPSf], cycles[core.VariantLogP])
	}
	if cycles[core.VariantSP] >= cycles[core.VariantLogPSf] {
		t.Errorf("SP (%d) not faster than Log+P+Sf (%d)", cycles[core.VariantSP], cycles[core.VariantLogPSf])
	}
}

func TestSameSeedSameWork(t *testing.T) {
	// All variants perform the same functional operations: committed
	// instruction counts must be ordered Base <= Log <= Log+P <= Log+P+Sf
	// and Log+P+Sf == SP (same software).
	b, _ := FindBench("HM")
	committed := make(map[core.Variant]uint64)
	for _, v := range core.Variants() {
		committed[v] = MustRun(b, tinyRC(v)).Stats.Committed
	}
	if committed[core.VariantLogPSf] != committed[core.VariantSP] {
		t.Errorf("Log+P+Sf and SP instruction counts differ: %d vs %d",
			committed[core.VariantLogPSf], committed[core.VariantSP])
	}
	if !(committed[core.VariantBase] <= committed[core.VariantLog] &&
		committed[core.VariantLog] <= committed[core.VariantLogP] &&
		committed[core.VariantLogP] <= committed[core.VariantLogPSf]) {
		t.Errorf("instruction counts not monotone: %v", committed)
	}
}

func TestSSBSweepRuns(t *testing.T) {
	b, _ := FindBench("LL")
	for _, n := range []int{32, 256} {
		rc := tinyRC(core.VariantSP)
		o := core.DefaultOptions().For(core.VariantSP)
		o.CPU.SP.SSBEntries = n
		rc.Options = &o
		r := MustRun(b, rc)
		if r.Stats.SSBMaxUsed > n {
			t.Errorf("SSB used %d of %d", r.Stats.SSBMaxUsed, n)
		}
	}
}

func TestCheckpointOverride(t *testing.T) {
	b, _ := FindBench("LL")
	rc := tinyRC(core.VariantSP)
	o := core.DefaultOptions().For(core.VariantSP)
	o.CPU.SP.Checkpoints = 2
	rc.Options = &o
	r := MustRun(b, rc)
	if r.Stats.CheckpointsMaxUsed > 2 {
		t.Errorf("checkpoints used %d of 2", r.Stats.CheckpointsMaxUsed)
	}
}

func TestSuiteCachesRuns(t *testing.T) {
	s := NewSuite(0.002, 7)
	b, _ := FindBench("LL")
	r1 := s.Get(b, core.VariantBase)
	r2 := s.Get(b, core.VariantBase)
	if r1.Stats.Cycles != r2.Stats.Cycles {
		t.Error("suite did not cache")
	}
}

func TestAblationPointsComplete(t *testing.T) {
	pts := AblationPoints()
	if len(pts) < 6 {
		t.Fatalf("only %d ablation points", len(pts))
	}
	names := make(map[string]bool)
	for _, p := range pts {
		if names[p.Name] {
			t.Errorf("duplicate ablation %q", p.Name)
		}
		names[p.Name] = true
		if !p.SP.Enabled {
			t.Errorf("ablation %q has SP disabled", p.Name)
		}
	}
	for _, want := range []string{"SP256", "no-bloom", "no-collapse", "no-delay"} {
		if !names[want] {
			t.Errorf("missing ablation %q", want)
		}
	}
}

// TestSPOverrideApplies: SP hardware set in Options overrides the SP256
// default of a speculative run.
func TestSPOverrideApplies(t *testing.T) {
	b, _ := FindBench("LL")
	o := core.DefaultOptions()
	o.CPU.SP = AblationPoints()[3].SP // no-delay
	rc := tinyRC(core.VariantSP)
	rc.Options = &o
	r := MustRun(b, rc)
	if r.Stats.DelayedPMEMOps != 0 {
		t.Errorf("no-delay override still delayed %d PMEM ops", r.Stats.DelayedPMEMOps)
	}
}

func TestIncrementalBTRun(t *testing.T) {
	b, _ := FindBench("BT")
	rc := tinyRC(core.VariantLogPSf)
	rc.IncrementalBT = true
	inc := MustRun(b, rc)
	rc.IncrementalBT = false
	full := MustRun(b, rc)
	if inc.Stats.Pcommits <= full.Stats.Pcommits {
		t.Errorf("incremental pcommits %d not above full %d", inc.Stats.Pcommits, full.Stats.Pcommits)
	}
	if inc.Txn.Entries >= full.Txn.Entries {
		t.Errorf("incremental log entries %d not below full %d", inc.Txn.Entries, full.Txn.Entries)
	}
}

func TestTxnStatsInResult(t *testing.T) {
	b, _ := FindBench("RT")
	r := MustRun(b, tinyRC(core.VariantLogPSf))
	if r.Txn.Txns == 0 || r.Txn.Entries == 0 {
		t.Errorf("txn stats empty: %+v", r.Txn)
	}
	// Trees log much more than the header+node pair.
	if avg := float64(r.Txn.Entries) / float64(r.Txn.Txns); avg < 5 {
		t.Errorf("RT logs %.1f entries/txn, expected heavy full logging", avg)
	}
	base := MustRun(b, tinyRC(core.VariantBase))
	if base.Txn.Txns != 0 {
		t.Error("Base variant reported transactions")
	}
}

func TestStaticTables(t *testing.T) {
	if s := Table1Report().String(); !strings.Contains(s, "RT") {
		t.Error("Table 1 missing RT")
	}
	if s := Table2Report().String(); !strings.Contains(s, "ROB: 128") {
		t.Error("Table 2 missing ROB")
	}
	if s := Table3Report().String(); !strings.Contains(s, "1024") {
		t.Error("Table 3 missing 1024")
	}
}
