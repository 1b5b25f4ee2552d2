package litmus

import (
	"encoding/json"
	"math/rand"
	"reflect"
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

// FuzzLitmusReproducer drives the litmus -replay path with arbitrary
// JSON: whatever decodes into a Reproducer whose program validates must
// replay under a 20,000-state cap to a verdict or an error (a cap
// overflow), never a panic; a reproduced violation is reported; and a
// second replay agrees.
func FuzzLitmusReproducer(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"program":{"name":"sb","locs":[{"name":"x","line":0,"off":0,"size":8},{"name":"y","line":1,"off":0,"size":8}],"threads":[[],[{"op":"st","loc":"y","val":2},{"op":"clwb","loc":"y"},{"op":"sfence"},{"op":"pcommit"},{"op":"st","loc":"x","val":2}]]},"kind":"golden-mismatch","outcome":"x=2 y=0","weakened":true}`,
		`{"program":{"name":"x","locs":[{"name":"a","line":0,"off":0,"size":8}],"threads":[[{"op":"st","loc":"a","val":1}]]},"kind":"outcome-not-allowed"}`,
		`{"program":{"name":"mp","locs":[{"name":"d","line":0,"off":0,"size":8},{"name":"f","line":1,"off":0,"size":8}],"threads":[[{"op":"st","loc":"d","val":1},{"op":"clflushopt","loc":"d"},{"op":"sfence"},{"op":"st","loc":"f","val":1}],[{"op":"ld","loc":"f"},{"op":"ld","loc":"d"}]]},"kind":"ref-allows-forbidden","outcome":"d=0 f=1"}`,
		`{"program":{"name":"torn","locs":[{"name":"a","line":0,"off":4,"size":8}],"threads":[[{"op":"st","loc":"a","val":3}]]},"kind":"stream-diverges"}`,
		`{"program":{"threads":[]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Reproducer
		if err := json.Unmarshal(data, &r); err != nil {
			return // not a reproducer; nothing to check
		}
		if r.Program.Validate() != nil {
			return
		}
		const maxStates = 20_000
		ok, vs, err := r.Replay(maxStates)
		if err == nil && ok && len(vs) == 0 {
			t.Fatal("replay reproduced a violation but reported none")
		}
		ok2, vs2, err2 := r.Replay(maxStates)
		if (err == nil) != (err2 == nil) || ok != ok2 || !reflect.DeepEqual(vs, vs2) {
			t.Fatalf("replay is not deterministic: %v %v %v vs %v %v %v", ok, vs, err, ok2, vs2, err2)
		}
	})
}
