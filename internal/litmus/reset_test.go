package litmus

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"specpersist/internal/cpu"
	"specpersist/internal/multicore"
)

// TestResetMachineMatchesFresh checks that a reset machine is a fresh one.
// Every mode of the curated corpus and of 20 seeded programs runs twice:
// on a machine built by New, and on a machine of the same shape that last
// ran another program, fully and then again up to a point where a core is
// speculating, before Reset. The two runs must commit the same streams and
// give the same Stats (PerCore included), probe-campaign counts and
// registry snapshots, and the reset must leave the earlier run's commit
// logs as they were: a reset hands the log off instead of reusing it.
func TestResetMachineMatchesFresh(t *testing.T) {
	type item struct {
		prog int
		pl   *plan
		mode Mode
	}
	progs := Curated()
	for i := 0; i < 20; i++ {
		progs = append(progs, Generate(TrialSeed(1, i)))
	}
	var items []item
	for i := range progs {
		pl := mustCompile(t, &progs[i])
		for _, m := range Modes(&progs[i]) {
			items = append(items, item{i, pl, m})
		}
	}
	sameShape := func(a, b item) bool {
		return len(a.pl.p.Threads) == len(b.pl.p.Threads) && a.mode.SP == b.mode.SP
	}
	recycled := 0
	for i, it := range items {
		// The machine last ran the nearest earlier item of the same shape
		// that is another program, wrapping around the list.
		var prev *item
		for k := 1; k < len(items) && prev == nil; k++ {
			if c := &items[(i-k+len(items))%len(items)]; c.prog != it.prog && sameShape(*c, it) {
				prev = c
			}
		}
		if prev == nil {
			continue
		}
		recycled++
		sim := newMachine(prev.pl, prev.mode)
		before, err := runOn(sim, prev.pl, prev.mode)
		if err != nil {
			t.Fatalf("%s/%s: %v", progs[prev.prog].Name, prev.mode.Name, err)
		}
		kept := make([][]cpu.CommitEvent, len(before.logs))
		for c, log := range before.logs {
			kept[c] = slices.Clone(log)
		}
		stopSpeculating(sim, prev.pl)
		sim.Reset()

		got, err := runOn(sim, it.pl, it.mode)
		if err != nil {
			t.Fatalf("%s/%s on a reset machine: %v", progs[it.prog].Name, it.mode.Name, err)
		}
		gotMetrics := sim.Metrics()
		fresh := newMachine(it.pl, it.mode)
		want, err := runOn(fresh, it.pl, it.mode)
		if err != nil {
			t.Fatalf("%s/%s: %v", progs[it.prog].Name, it.mode.Name, err)
		}
		name := progs[it.prog].Name + "/" + it.mode.Name + " after " + progs[prev.prog].Name + "/" + prev.mode.Name
		for c := range want.logs {
			if !slices.Equal(got.logs[c], want.logs[c]) {
				t.Errorf("%s: core %d committed %v, fresh machine %v", name, c, got.logs[c], want.logs[c])
			}
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Errorf("%s: stats %+v, fresh machine %+v", name, got.stats, want.stats)
		}
		if !reflect.DeepEqual(got.forced, want.forced) {
			t.Errorf("%s: probe campaign %+v, fresh machine %+v", name, got.forced, want.forced)
		}
		if wantMetrics := fresh.Metrics(); !maps.Equal(gotMetrics, wantMetrics) {
			t.Errorf("%s: metrics %v, fresh machine %v", name, gotMetrics, wantMetrics)
		}
		for c := range kept {
			if !slices.Equal(before.logs[c], kept[c]) {
				t.Errorf("%s: the earlier run's core %d log changed to %v from %v", name, c, before.logs[c], kept[c])
			}
		}
	}
	if recycled < len(items)*9/10 {
		t.Errorf("only %d of %d mode runs had another program of their shape to follow", recycled, len(items))
	}
}

// stopSpeculating starts pl's traces again on a machine that ran them and
// steps it a cycle at a time until some core is speculating with stores
// in its SSB (or at most 500 rounds), leaving the pipelines, SP structures,
// Bloom filter and caches mid-run.
func stopSpeculating(sim *multicore.Sim, pl *plan) {
	entries := make([]uint64, sim.Cores())
	for i, b := range buildTraces(pl) {
		sim.StartCore(i, b)
		entries[i] = sim.Core(i).Stats().SpecEntries
	}
	for round := 0; round < 500; round++ {
		for i := range entries {
			h := sim.Core(i).Now() + 1
			sim.StepWhile(i, func() uint64 { return h })
			if c := sim.Core(i); c.Speculating() && c.Stats().SpecEntries > entries[i] {
				return
			}
		}
	}
}
