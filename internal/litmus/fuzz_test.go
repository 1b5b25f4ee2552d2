package litmus

import (
	"math/rand"
	"testing"
)

// FuzzLitmusProgram drives arbitrary bytes through the program generator
// and the full cross-check: whatever program the bytes decode to, the
// harness must not panic, the reference enumeration must succeed within a
// bounded state budget, and the real simulator — plain and SP, including
// the forced rollback and NACK-window modes — must stay inside the
// reference-allowed outcome set with SP indistinguishable from plain. Any
// counterexample the fuzzer finds is a real soundness bug in either the
// simulator or the reference model.
func FuzzLitmusProgram(f *testing.F) {
	// The curated shapes re-encoded as generator inputs, plus boundary
	// junk, seed the corpus alongside testdata/fuzz checked-in inputs.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248})
	for seed := int64(0); seed < 4; seed++ {
		buf := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := FromBytes(data)
		if !ok {
			return
		}
		// Small cap: fuzz inputs can encode worst-case state spaces; a
		// cap overflow is a resource bound, not a soundness bug.
		res, err := Check(p, Config{MaxStates: 60000})
		if err != nil {
			return
		}
		for _, v := range res.Violations {
			t.Errorf("%v", v)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("program: %s", p.String())
		}
	})
}

// FuzzExplorersAgree decodes arbitrary bytes into a program and requires
// the memoized explorer kernel to agree with the straight-line oracles
// (reference under both semantics, drain-slack envelope, and the machine
// explorer on the plain run's streams) under a 20,000-state cap: the
// same outcome sets, state counts and cap verdicts.
func FuzzExplorersAgree(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	for seed := int64(0); seed < 4; seed++ {
		buf := make([]byte, 64)
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, ok := FromBytes(data)
		if !ok {
			return
		}
		const maxStates = 20_000
		pl := mustCompile(t, &p)
		pairs := explorerPairs(pl, maxStates)
		if run, err := runMachine(pl, Mode{Name: "plain", Probe: -1}); err == nil {
			pairs["machine"] = machinePair(pl, run.raw, maxStates)
		}
		for name, pair := range pairs {
			if d := disagreement(pair[0], pair[1]); d != "" {
				t.Fatalf("%s: %s\nprogram: %s", name, d, p.String())
			}
		}
	})
}
