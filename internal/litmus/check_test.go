package litmus

import (
	"slices"
	"testing"
)

// TestCuratedMachine runs every curated test through the full Check: the
// real simulator under every mode (plain, SP, forced rollback, forced NACK
// window per storing thread) must exhibit only reference-allowed outcomes,
// with SP streams and outcome sets byte-equal to the plain machine's. It
// also asserts the adversarial modes actually bit: across the corpus the
// injected probe campaigns must force at least one rollback and defer at
// least one probe in a NACK window, or the §4.2.2 abort paths were never
// exercised.
func TestCuratedMachine(t *testing.T) {
	forced, deferred := 0, 0
	for _, p := range Curated() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			res, err := Check(p, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("%v", v)
			}
			if len(res.Modes) < 2 {
				t.Fatalf("only %d modes ran", len(res.Modes))
			}
			for _, m := range res.Modes {
				forced += m.ForcedRollbacks
				deferred += m.NackDeferred
				if len(m.Outcomes) == 0 {
					t.Errorf("mode %s observed no outcomes", m.Mode.Name)
				}
				if !m.StreamsEqual {
					t.Errorf("mode %s: streams diverge from plain", m.Mode.Name)
				}
			}
		})
	}
	if forced == 0 {
		t.Error("no injected probe forced a rollback anywhere in the curated corpus")
	}
	if deferred == 0 {
		t.Error("no injected probe was NACK-deferred anywhere in the curated corpus")
	}
}

// TestGeneratedMachine sweeps seeded generated programs through Check —
// the in-process slice of the campaign the litmus CLI runs at scale.
func TestGeneratedMachine(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 30
	}
	bad := 0
	for i := 0; i < n; i++ {
		p := Generate(TrialSeed(1, i))
		res, err := Check(p, Config{})
		if err != nil {
			t.Fatalf("gen %d: %v\nprogram: %s", i, err, p.String())
		}
		if len(res.Violations) > 0 {
			bad++
			t.Errorf("gen %d: %v\nprogram: %s", i, res.Violations, p.String())
			if bad > 3 {
				t.Fatal("too many violations")
			}
		}
	}
}

// TestModesAdaptive: probe modes only appear for programs that can
// speculate (contain a pcommit) and threads that store.
func TestModesAdaptive(t *testing.T) {
	noCommit := Program{
		Name: "nc",
		Locs: []Loc{{Name: "x", Line: 0, Off: 0, Size: 8}},
		Threads: [][]Op{
			{{Kind: OpStore, Loc: "x", Val: 1}, {Kind: OpClwb, Loc: "x"}},
		},
	}
	if got := len(Modes(&noCommit)); got != 2 {
		t.Errorf("pcommit-free program got %d modes, want 2 (plain, sp)", got)
	}
	sb := Curated()[0]
	modes := Modes(&sb)
	if len(modes) != 6 {
		t.Errorf("sb got %d modes, want 6 (plain, sp, rb+nack per thread)", len(modes))
	}
}

// TestCheckDeterministic: Check is a pure function of the program — two
// runs must agree exactly (the simulator is deterministic, and the
// outcome sets are enumerated, not sampled).
func TestCheckDeterministic(t *testing.T) {
	p := Curated()[2] // 2+2w: shared lines, organic cross-core probes
	a, err := Check(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Check(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Modes) != len(b.Modes) {
		t.Fatalf("mode counts differ: %d vs %d", len(a.Modes), len(b.Modes))
	}
	for i := range a.Modes {
		if !slices.Equal(a.Modes[i].Outcomes, b.Modes[i].Outcomes) {
			t.Errorf("mode %s: outcome sets differ between runs", a.Modes[i].Mode.Name)
		}
		if a.Modes[i].Rollbacks != b.Modes[i].Rollbacks {
			t.Errorf("mode %s: rollback counts differ between runs", a.Modes[i].Mode.Name)
		}
	}
}
