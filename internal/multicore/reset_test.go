package multicore

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"specpersist/internal/cpu"
	"specpersist/internal/obs"
	"specpersist/internal/trace"
)

// resetTraces builds one trace per core of w, registering the functional
// layers' counters nowhere (a reused machine's registries must hold only
// the machine's own).
func resetTraces(t *testing.T, w Workload) []trace.Source {
	t.Helper()
	srcs := make([]trace.Source, w.Cores)
	for k := range srcs {
		buf, err := buildCoreTrace(w, k, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		srcs[k] = buf
	}
	return srcs
}

// runLogged runs srcs to completion on sim with commit logging on.
func runLogged(sim *Sim, srcs []trace.Source) (Stats, [][]cpu.CommitEvent) {
	for i := 0; i < sim.Cores(); i++ {
		sim.Core(i).EnableCommitLog()
	}
	st := sim.Run(srcs)
	logs := make([][]cpu.CommitEvent, sim.Cores())
	for i := range logs {
		logs[i] = sim.Core(i).CommitLog()
	}
	return st, logs
}

// TestResetMatchesNew runs a workload on a machine that ran another one
// (to completion, then again until core 0 is speculating halfway through)
// and was Reset, and on a machine New built. The commit logs, Stats
// (PerCore included) and metrics snapshots must be equal. The workloads'
// loads query the Bloom filter inside speculation, so a filter, SSB,
// checkpoint buffer, BLT, cache or controller that kept state across the
// reset changes the run.
func TestResetMatchesNew(t *testing.T) {
	shared := sharedWorkload()
	list := shared
	list.Structure, list.SharedFrac, list.Seed = "LL", 0.25, 7
	disjoint := shared
	disjoint.Disjoint, disjoint.Seed = true, 3
	cfg := DefaultConfig()
	cfg.Cores = shared.Cores
	label := func(w Workload) string {
		if w.Disjoint {
			return w.Structure + " (disjoint)"
		}
		return w.Structure
	}
	for _, pair := range [][2]Workload{{list, shared}, {shared, disjoint}, {disjoint, list}} {
		before, w := pair[0], pair[1]
		sim := New(cfg)
		st, _ := runLogged(sim, resetTraces(t, before))
		// Run it again until core 0 is speculating past half of the
		// epochs of the first run.
		first := st.PerCore[0].SpecEpochs
		for i, src := range resetTraces(t, before) {
			sim.StartCore(i, src)
		}
		speculating := false
		for step := 0; step < 1000000 && !speculating; step++ {
			h := sim.Core(0).Now() + 1
			sim.StepWhile(0, func() uint64 { return h })
			speculating = sim.Core(0).Speculating() && sim.Core(0).Stats().SpecEpochs >= first+first/2
		}
		if !speculating {
			t.Fatalf("%s: core 0 never speculated again", before.Structure)
		}
		sim.Reset()
		got, gotLogs := runLogged(sim, resetTraces(t, w))
		fresh := New(cfg)
		want, wantLogs := runLogged(fresh, resetTraces(t, w))
		name := label(w) + " after " + label(before)
		queries := uint64(0)
		for _, pc := range want.PerCore {
			queries += pc.BloomQueries
		}
		if queries == 0 {
			t.Errorf("%s: no load queried the Bloom filter", name)
		}
		for c := range wantLogs {
			if !slices.Equal(gotLogs[c], wantLogs[c]) {
				t.Errorf("%s: core %d commit log differs from a fresh machine's", name, c)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: stats %+v, fresh machine %+v", name, got, want)
		}
		if g, f := sim.Metrics(), fresh.Metrics(); !maps.Equal(g, f) {
			t.Errorf("%s: metrics %v, fresh machine %v", name, g, f)
		}
	}
}
