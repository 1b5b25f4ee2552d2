package litmus

import (
	"errors"
	"runtime"
	"slices"
	"testing"
)

// emptyFreeList drops whatever f holds, so the next get builds afresh.
func emptyFreeList[T any](f *freeList[T]) {
	f.mu.Lock()
	f.items = nil
	f.mu.Unlock()
}

func emptyExplorers() {
	emptyFreeList(&refExplorers)
	emptyFreeList(&slackExplorers)
	emptyFreeList(&machineExplorers)
}

// TestRecycledExplorersMatchFresh checks that a recycled explorer is a
// fresh one. A sequence of explorations starts with one that hits the
// state cap and one large one that does not, then covers the curated
// corpus and 300 generated programs: the reference under both semantics,
// the drain-slack envelope and the machine explorer over every mode's
// recorded streams. Run in order, each kind through the one explorer its
// free list keeps, every exploration must give the outcome set, state
// count and ErrStateCap verdict it gives on a freshly built explorer.
func TestRecycledExplorersMatchFresh(t *testing.T) {
	const genCap = 20_000
	type exploration struct {
		name string
		fn   exploreFn
	}
	var seq []exploration
	add := func(name string, pl *plan, maxStates int, streams [][][]mevent) {
		pairs := explorerPairs(pl, maxStates)
		kinds := make([]string, 0, len(pairs))
		for kind := range pairs {
			kinds = append(kinds, kind)
		}
		slices.Sort(kinds)
		for _, kind := range kinds {
			seq = append(seq, exploration{name + " " + kind, pairs[kind][0]})
		}
		for i, raw := range streams {
			seq = append(seq, exploration{name + " machine " + Modes(pl.p)[i].Name, machinePair(pl, raw, maxStates)[0]})
		}
	}
	streamsOf := func(pl *plan) [][][]mevent {
		var out [][][]mevent
		for _, m := range Modes(pl.p) {
			run, err := runMachine(pl, m)
			if err != nil {
				t.Fatalf("%s %s: %v", pl.p.Name, m.Name, err)
			}
			out = append(out, run.raw)
		}
		return out
	}

	// The curated program with the largest reference state space, first
	// capped at a quarter of its states (the strict reference, first in
	// the sequence, hits that cap), then in full.
	var big Program
	most := 0
	for _, p := range Curated() {
		_, n, err := Strict().Enumerate(&p, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n > most {
			big, most = p, n
		}
	}
	bigPl := mustCompile(t, &big)
	bigStreams := streamsOf(bigPl)
	add(big.Name+" capped", bigPl, most/4, bigStreams)
	add(big.Name, bigPl, 0, bigStreams)
	progs := Curated()
	for i := 0; i < 300; i++ {
		progs = append(progs, Generate(TrialSeed(13, i)))
	}
	for i := range progs {
		pl := mustCompile(t, &progs[i])
		add(progs[i].Name, pl, genCap, streamsOf(pl))
	}

	type result struct {
		set    []string
		states int
		capped bool
	}
	runOne := func(e exploration) result {
		set, n, err := e.fn()
		if err != nil && !errors.Is(err, ErrStateCap) {
			t.Fatalf("%s: %v", e.name, err)
		}
		return result{sortedOutcomes(set), n, err != nil}
	}
	fresh := make([]result, len(seq))
	for i, e := range seq {
		emptyExplorers()
		fresh[i] = runOne(e)
	}
	if !fresh[0].capped {
		t.Fatalf("%s did not hit its cap", seq[0].name)
	}
	emptyExplorers()
	for i, e := range seq {
		got := runOne(e)
		if got.capped != fresh[i].capped || got.states != fresh[i].states {
			t.Errorf("%s: recycled explorer visited %d states (capped %v), fresh %d (capped %v)", e.name, got.states, got.capped, fresh[i].states, fresh[i].capped)
		} else if !slices.Equal(got.set, fresh[i].set) {
			t.Errorf("%s: recycled explorer's outcomes differ (%s)", e.name, firstDiff(got.set, fresh[i].set))
		}
	}
	for kind, n := range map[string]int{"reference": len(refExplorers.items), "slack": len(slackExplorers.items), "machine": len(machineExplorers.items)} {
		if n != 1 {
			t.Errorf("the %s free list holds %d explorers after a sequential run, want 1", kind, n)
		}
	}
}

// warmCampaignBytesPerProgram bounds what a warm campaign allocates per
// curated program. On one worker (linux/amd64, go1.24) it measured 74,660
// B (75,851 B under the race detector), against 158,846 B when every
// exploration built its explorer; most of what is left is the outcome
// sets, the traces and the interned images' map keys.
const warmCampaignBytesPerProgram = 100_000

// TestWarmCampaignRecycles checks that, once a campaign over the curated
// corpus has warmed the free lists, a second one builds no machine and
// allocates less than warmCampaignBytesPerProgram per program.
func TestWarmCampaignRecycles(t *testing.T) {
	cfg := CampaignConfig{Curated: true, Workers: 1}
	held := func() int {
		n := 0
		for i := range machines {
			for j := range machines[i] {
				n += len(machines[i][j].items)
			}
		}
		return n
	}
	if _, err := Campaign(cfg); err != nil {
		t.Fatal(err)
	}
	before := held()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := Campaign(cfg)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if built := held() - before; built != 0 {
		t.Errorf("a warm campaign built %d machines", built)
	}
	perProgram := (m1.TotalAlloc - m0.TotalAlloc) / uint64(len(res.Trials))
	t.Logf("%d B per curated program", perProgram)
	if perProgram > warmCampaignBytesPerProgram {
		t.Errorf("a warm campaign allocated %d B per program, limit %d", perProgram, warmCampaignBytesPerProgram)
	}
}
