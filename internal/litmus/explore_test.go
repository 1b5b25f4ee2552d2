package litmus

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// exploreFn is one explorer run: outcome set, states visited, error.
type exploreFn func() (map[string]struct{}, int, error)

// disagreement runs the kernel and the straight-line oracle and returns
// "" when they agree on the ErrStateCap verdict, the state count and (when
// uncapped) the outcome set. Any other error is reported as is.
func disagreement(kernel, oracle exploreFn) string {
	kset, kn, kerr := kernel()
	oset, on, oerr := oracle()
	for _, err := range []error{kerr, oerr} {
		if err != nil && !errors.Is(err, ErrStateCap) {
			return "explorer error: " + err.Error()
		}
	}
	if (kerr != nil) != (oerr != nil) {
		return fmt.Sprintf("cap verdicts differ: kernel %v, oracle %v", kerr, oerr)
	}
	if kn != on {
		return fmt.Sprintf("kernel visited %d states, oracle %d", kn, on)
	}
	k, o := sortedOutcomes(kset), sortedOutcomes(oset)
	if !slices.Equal(k, o) {
		return fmt.Sprintf("outcome sets differ (%s)", firstDiff(k, o))
	}
	return ""
}

// explorerPairs lists the kernel-backed explorers of a compiled program
// beside their oracles: the reference under both semantics and the
// drain-slack envelope.
func explorerPairs(pl *plan, maxStates int) map[string][2]exploreFn {
	pairs := make(map[string][2]exploreFn)
	for _, sem := range []Semantics{Strict(), Weakened()} {
		pairs["reference/"+sem.String()] = [2]exploreFn{
			func() (map[string]struct{}, int, error) { return sem.enumerate(pl, maxStates) },
			func() (map[string]struct{}, int, error) { return oracleEnumerate(sem, pl, maxStates) },
		}
	}
	pairs["slack"] = [2]exploreFn{
		func() (map[string]struct{}, int, error) { return slackOutcomes(pl, maxStates) },
		func() (map[string]struct{}, int, error) { return oracleSlackOutcomes(pl, maxStates) },
	}
	return pairs
}

// machinePair compares the machine explorer with its oracle on streams.
func machinePair(pl *plan, streams [][]mevent, maxStates int) [2]exploreFn {
	return [2]exploreFn{
		func() (map[string]struct{}, int, error) { return machineOutcomes(pl, streams, maxStates) },
		func() (map[string]struct{}, int, error) { return oracleMachineOutcomes(pl, streams, maxStates) },
	}
}

func mustCompile(t testing.TB, p *Program) *plan {
	t.Helper()
	pl, err := compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestExplorersMatchStraightLine pins the memoized kernel to the
// straight-line explorers it replaced: the same outcome sets, the same
// visited-state counts and the same ErrStateCap verdicts, on the curated
// corpus, on generated programs, under a cap that trips mid-search, and
// for the machine explorer on streams recorded from real runs.
func TestExplorersMatchStraightLine(t *testing.T) {
	const genCap = 20_000
	check := func(t *testing.T, what string, pair [2]exploreFn) {
		t.Helper()
		if d := disagreement(pair[0], pair[1]); d != "" {
			t.Errorf("%s: %s", what, d)
		}
	}
	var progs []Program
	progs = append(progs, Curated()...)
	for i := 0; i < 300; i++ {
		progs = append(progs, Generate(TrialSeed(11, i)))
	}
	t.Run("programs", func(t *testing.T) {
		for _, p := range progs {
			pl := mustCompile(t, &p)
			for name, pair := range explorerPairs(pl, genCap) {
				check(t, p.Name+" "+name, pair)
			}
		}
	})
	t.Run("cap-trips", func(t *testing.T) {
		// The curated program with the largest reference state space;
		// each explorer is capped at half its own full count, so both
		// sides must fail at the same visited count.
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
		pl := mustCompile(t, &big)
		run, err := runMachine(pl, Mode{Name: "plain", Probe: -1})
		if err != nil {
			t.Fatal(err)
		}
		pairs := explorerPairs(pl, 0)
		pairs["machine"] = machinePair(pl, run.raw, 0)
		for name, full := range pairs {
			_, n, err := full[0]()
			if err != nil {
				t.Fatal(err)
			}
			capped := explorerPairs(pl, n/2)
			capped["machine"] = machinePair(pl, run.raw, n/2)
			if _, _, err := capped[name][0](); !errors.Is(err, ErrStateCap) {
				t.Fatalf("%s %s at cap %d of %d states did not trip: %v", big.Name, name, n/2, n, err)
			}
			check(t, big.Name+" "+name, capped[name])
		}
	})
	t.Run("machine-streams", func(t *testing.T) {
		for _, p := range progs[:len(Curated())+40] {
			pl := mustCompile(t, &p)
			for _, m := range Modes(&p) {
				run, err := runMachine(pl, m)
				if err != nil {
					t.Fatalf("%s %s: %v", p.Name, m.Name, err)
				}
				check(t, p.Name+" "+m.Name, machinePair(pl, run.raw, genCap))
			}
		}
	})
}
