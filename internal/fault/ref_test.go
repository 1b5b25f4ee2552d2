package fault

import (
	"math/rand"
	"reflect"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/exec"
	"specpersist/internal/pstruct"
	"specpersist/internal/txn"
)

// refRun is the straight-line trial the shared prefixes replaced, kept as
// the equivalence oracle (as cpu/refsched.go is for the scheduler): every
// plan builds, warms up and advances a fresh machine, with a plain
// *rand.Rand adversary, and probes it directly — no counting pass, no fork.
func refRun(p Plan, primary fateFunc) (Outcome, error) {
	if err := p.validate(); err != nil {
		return Outcome{}, err
	}
	v, _ := core.ParseVariant(p.Variant)
	env := exec.New()
	env.Level = v.Level()
	if v.Level() == exec.LevelLogP {
		env.Reorder = rand.New(rand.NewSource(p.Seed + 99))
	}
	mgr := txn.NewManager(env, p.LogCapacity)
	m := machine{env: env, mgr: mgr, s: pstruct.Build(p.Structure, env, mgr, p.config())}
	rng := rand.New(rand.NewSource(p.Seed))
	for i := 0; i < p.Warmup; i++ {
		m.s.Apply(uint64(rng.Intn(p.Keyspace)))
	}
	env.M.PersistAll()
	for i := 0; i < p.Op; i++ {
		m.s.Apply(uint64(rng.Intn(p.Keyspace)))
	}
	key := uint64(rng.Intn(p.Keyspace))
	return probe(m, key, snapshot(m.s, p), p, primary), nil
}

// TestForkedTrialsMatchReference runs every plan of small exhaustive
// torn+recrash campaigns on both paths — forked from the shared prefix and
// straight-line on fresh state — and requires identical outcomes and
// identical sampled fates. The configurations cover every structure under
// Log+P+Sf, LL under Log+P (the adversary's rng position must survive the
// fork) and VT under the unsafe-flip negative control.
func TestForkedTrialsMatchReference(t *testing.T) {
	type config struct {
		structure  string
		variant    core.Variant
		unsafeFlip bool
	}
	var configs []config
	for _, s := range pstruct.AllNames() {
		configs = append(configs, config{s, core.VariantLogPSf, false})
	}
	configs = append(configs, config{"LL", core.VariantLogP, false}, config{"VT", core.VariantLogPSf, true})
	if testing.Short() {
		configs = configs[len(configs)-3:]
	}

	e := &Engine{Samples: 1, Torn: true, Recrash: true}
	for _, cfg := range configs {
		c := Campaign{Variant: cfg.variant, Seed: 4, Warmup: 12, Ops: 2, Exhaustive: true, VstoreUnsafeFlip: cfg.unsafeFlip}
		base, nops := c.basePlan(cfg.structure)
		pres, counts, err := prefixes(base, 0, nops)
		if err != nil {
			t.Fatal(err)
		}
		plans, sampled := e.trialPlans(base, c, counts)
		results := e.runTrials(pres, plans, sampled)
		children := recrashPlans(results)
		results = append(results, e.runTrials(pres, children, nil)...)
		plans = append(plans, children...)
		if len(children) == 0 && cfg.structure != "VT" { // VT recovery persists nothing
			t.Errorf("%s %s: no recovery-crash trials; the comparison misses recovery", cfg.structure, cfg.variant)
		}

		failed := 0
		for i, p := range plans {
			fates := replayFates(p.Fates)
			var rec []LineFate
			if i < len(sampled) && sampled[i] != 0 {
				fates = samplingFates(sampled[i], e.Torn, &rec)
			}
			want, err := refRun(p, fates)
			if err != nil {
				t.Fatal(err)
			}
			if rec != nil {
				p.Fates = rec
			}
			got := results[i]
			if !reflect.DeepEqual(got.out, want) || !reflect.DeepEqual(got.plan, p) {
				t.Fatalf("%s %s plan %d diverged from the reference:\nplan:      %+v\nforked:    %+v\nreference: %+v",
					cfg.structure, cfg.variant, i, got.plan, got.out, want)
			}
			if want.Failed() {
				failed++
			}
		}
		if (cfg.variant == core.VariantLogPSf && !cfg.unsafeFlip) != (failed == 0) {
			t.Errorf("%s %s unsafe=%v: %d violations of %d trials", cfg.structure, cfg.variant, cfg.unsafeFlip, failed, len(plans))
		}
	}
}

// TestRunMatchesReference checks the replay path: Run builds one prefix
// and forks it once, and must agree with the straight-line trial on plans
// with recorded primary and recovery fates.
func TestRunMatchesReference(t *testing.T) {
	p := DefaultPlan("BT", core.VariantLogP, 9)
	p.Op, p.CrashIndex, p.RecoveryCrash = 2, 30, 3
	p.Fates = []LineFate{{Line: 1 << 20, Src: "cache", Mask: 0x0f}}
	p.RecoveryFates = []LineFate{{Line: 1<<20 + 64, Src: "wpq", Mask: 0xff}}
	got, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refRun(p, replayFates(p.Fates))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Run diverged from the reference:\nRun:       %+v\nreference: %+v", got, want)
	}
}
