package litmus

import (
	"slices"
	"testing"
)

// TestGoldensPinReference checks the reference interpreter against every
// hand-derived golden file: computed allowed set exactly equal, nothing
// forbidden allowed. This pins the interpreter itself — the goldens were
// derived on paper, not dumped from the code under test.
func TestGoldensPinReference(t *testing.T) {
	goldens, err := Goldens()
	if err != nil {
		t.Fatal(err)
	}
	curated := Curated()
	if len(goldens) != len(curated) {
		t.Fatalf("%d golden files for %d curated tests", len(goldens), len(curated))
	}
	for _, p := range curated {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			g, ok := goldens[p.Name]
			if !ok {
				t.Fatalf("no golden file for %q", p.Name)
			}
			vs, err := CheckGolden(p, g, Strict(), 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vs {
				t.Errorf("%v", v)
			}
		})
	}
}

// TestReferenceSingleThread hand-checks tiny programs against outcome sets
// small enough to write down exhaustively.
func TestReferenceSingleThread(t *testing.T) {
	locX := Loc{Name: "x", Line: 0, Off: 0, Size: 8}
	cases := []struct {
		name string
		ops  []Op
		want []string
	}{
		{
			// Unflushed store: only volatile, crash may or may not evict it.
			"store-only",
			[]Op{{Kind: OpStore, Loc: "x", Val: 5}},
			[]string{"x=0", "x=5"},
		},
		{
			// Flushed but uncommitted: still only {0,5} — the WPQ snapshot
			// adds a path to 5, not a new value.
			"store-clwb",
			[]Op{{Kind: OpStore, Loc: "x", Val: 5}, {Kind: OpClwb, Loc: "x"}},
			[]string{"x=0", "x=5"},
		},
		{
			// Full persist barrier: by the end x=5 is durable, but a crash
			// anywhere earlier can still see 0 — the outcome set is over
			// crashes at every point, not just completion.
			"store-barrier",
			append([]Op{{Kind: OpStore, Loc: "x", Val: 5}, {Kind: OpClwb, Loc: "x"}}, barrier()...),
			[]string{"x=0", "x=5"},
		},
		{
			// Overwrite before the flush completes: the snapshot may carry
			// either value (flush completion races the second store), so all
			// three images are reachable.
			"overwrite-race",
			[]Op{
				{Kind: OpStore, Loc: "x", Val: 1},
				{Kind: OpClwb, Loc: "x"},
				{Kind: OpStore, Loc: "x", Val: 2},
				{Kind: OpPcommit},
			},
			[]string{"x=0", "x=1", "x=2"},
		},
		{
			// sfence pins the snapshot to 1 before the overwrite, but the
			// line re-dirtied with 2 can still evict: {0,1,2}.
			"overwrite-fenced",
			[]Op{
				{Kind: OpStore, Loc: "x", Val: 1},
				{Kind: OpClwb, Loc: "x"},
				{Kind: OpSfence},
				{Kind: OpStore, Loc: "x", Val: 2},
				{Kind: OpPcommit},
			},
			[]string{"x=0", "x=1", "x=2"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Program{Name: tc.name, Locs: []Loc{locX}, Threads: [][]Op{tc.ops}}
			set, _, err := Strict().Enumerate(&p, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := sortedOutcomes(set)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("allowed = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestWeakenedEnlarges: dropping the sfence→pcommit edge must yield a
// strict superset of allowed outcomes on at least one curated test — the
// property the negative control relies on.
func TestWeakenedEnlarges(t *testing.T) {
	enlargedSomewhere := false
	for _, p := range Curated() {
		p := p
		strict, _, err := Strict().Enumerate(&p, 0)
		if err != nil {
			t.Fatal(err)
		}
		weak, _, err := Weakened().Enumerate(&p, 0)
		if err != nil {
			t.Fatal(err)
		}
		for o := range strict {
			if _, ok := weak[o]; !ok {
				t.Errorf("%s: weakened semantics lost strict-allowed outcome %q", p.Name, o)
			}
		}
		if len(weak) > len(strict) {
			enlargedSomewhere = true
		}
	}
	if !enlargedSomewhere {
		t.Fatal("weakened semantics enlarged no curated test's allowed set; negative control would be vacuous")
	}
}

// TestEnumerateStateCap: the explorer must fail loudly, not silently
// truncate, when the state budget is exhausted.
func TestEnumerateStateCap(t *testing.T) {
	p := Curated()[0]
	if _, _, err := Strict().Enumerate(&p, 3); err == nil {
		t.Fatal("Enumerate with a 3-state budget succeeded")
	}
}
