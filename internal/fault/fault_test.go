package fault

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/obs"
)

func TestPlanJSONRoundTrip(t *testing.T) {
	p := DefaultPlan("LL", core.VariantLogP, 7)
	p.Op = 2
	p.CrashIndex = 17
	p.Fates = []LineFate{{Line: 0x1c0, Src: "wpq", Mask: 0x0f}, {Line: 0x200, Src: "cache", Mask: 0xff}}
	p.RecoveryCrash = 3
	p.RecoveryFates = []LineFate{{Line: 0x240, Src: "cache", Mask: 0x01}}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Plan
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, q)
	}
}

func TestPlanValidation(t *testing.T) {
	good := DefaultPlan("LL", core.VariantLogPSf, 1)
	if err := good.validate(); err != nil {
		t.Fatalf("default plan invalid: %v", err)
	}
	for name, mutate := range map[string]func(*Plan){
		"unknown structure":  func(p *Plan) { p.Structure = "XX" },
		"unknown variant":    func(p *Plan) { p.Variant = "warp" },
		"bad fate source":    func(p *Plan) { p.Fates = []LineFate{{Src: "dram"}} },
		"oversized mask":     func(p *Plan) { p.Fates = []LineFate{{Src: "cache", Mask: 0}}; p.Fates[0].Mask = 0xff + 0 },
		"negative crash":     func(p *Plan) { p.CrashIndex = -1 },
		"zero log capacity":  func(p *Plan) { p.LogCapacity = 0 },
		"zero hash capacity": func(p *Plan) { p.HashCapacity = 0 },
		"no recovery":        func(p *Plan) { p.Variant = core.VariantBase.String() },
		"misaligned fate":    func(p *Plan) { p.Fates = []LineFate{{Line: 1<<20 + 8, Src: "cache", Mask: 1}} },
		"misaligned refate":  func(p *Plan) { p.RecoveryFates = []LineFate{{Line: 3, Src: "wpq", Mask: 1}} },
		"flip on a WAL list": func(p *Plan) { p.VstoreUnsafeFlip = true },
	} {
		p := good
		mutate(&p)
		if name == "oversized mask" {
			continue // 0xff == FullMask is legal; masks cannot exceed uint8 anyway
		}
		if err := p.validate(); err == nil {
			t.Errorf("%s: validate accepted %+v", name, p)
		}
	}
}

// TestRunReportsUnbuildablePlans checks that a plan whose prefix cannot
// be built — the structure's constructor or the warm-up panics — comes
// back from Run as an error, neither a crash of the caller nor a violation.
func TestRunReportsUnbuildablePlans(t *testing.T) {
	for name, mutate := range map[string]func(*Plan){
		"log capacity": func(p *Plan) { p.Structure, p.LogCapacity = "BT", 1 },
		"one string":   func(p *Plan) { p.Structure, p.Strings = "SS", 1 },
	} {
		p := DefaultPlan("LL", core.VariantLogPSf, 1)
		mutate(&p)
		if out, err := Run(p); err == nil {
			t.Errorf("%s: Run accepted the plan: %+v", name, out)
		}
	}
}

func TestRunIsDeterministic(t *testing.T) {
	// A sampled trial records its fates; replaying the recorded plan must
	// reproduce the identical outcome, byte for byte.
	p := DefaultPlan("LL", core.VariantLogPSf, 3)
	p.Op = 1
	p.CrashIndex = 25
	var rec []LineFate
	pres, _, err := prefixes(p, p.Op, p.Op+1)
	if err != nil {
		t.Fatal(err)
	}
	first := runTrial(&pres[0], p, samplingFates(rand.New(rand.NewSource(12345)), true, &rec))
	p.Fates = rec
	for i := 0; i < 2; i++ {
		again, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("replay %d diverged:\nfirst: %+v\nagain: %+v", i, first, again)
		}
	}
}

func TestCountOpEvents(t *testing.T) {
	p := DefaultPlan("LL", core.VariantLogPSf, 1)
	_, counts, err := prefixes(p, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != 3 {
		t.Fatalf("got %d counts", len(counts))
	}
	for i, n := range counts {
		if n < 10 {
			t.Errorf("op %d: only %d persistence events; a WAL transaction has more", i, n)
		}
	}
	// The counting pass must agree with what a trial observes: a crash
	// index beyond the op's events means the op completes.
	trial := p
	trial.Op = 0
	trial.CrashIndex = counts[0] + 1000
	out, err := Run(trial)
	if err != nil {
		t.Fatal(err)
	}
	if out.Crashed {
		t.Error("crash fired past the counted event range")
	}
	if out.Events != counts[0] {
		t.Errorf("trial saw %d events, counting pass saw %d", out.Events, counts[0])
	}
}

func TestEngineCountersRegistered(t *testing.T) {
	e := &Engine{}
	r := obs.NewRegistry()
	e.Register(r)
	snap := r.Snapshot()
	for _, key := range []string{"fault.trials", "fault.crashes", "fault.torn", "fault.violations", "fault.shrink.steps"} {
		if _, ok := snap[key]; !ok {
			t.Errorf("counter %s not registered", key)
		}
	}
}

func TestRecrashTrialConverges(t *testing.T) {
	// Crash mid-commit, then crash again inside recovery at every event;
	// the trial itself runs the convergence checks (idempotence, pre/post
	// atomicity) and must pass at LevelFull.
	base := DefaultPlan("HM", core.VariantLogPSf, 5)
	base.Op = 0
	_, counts, err := prefixes(base, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a late crash index (commit phase) so recovery has work to do.
	base.CrashIndex = counts[0] * 3 / 4
	out, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("primary trial failed: %s", out.Violation)
	}
	if out.RecoveryEvents == 0 {
		t.Skip("chosen crash point needed no recovery work")
	}
	for rc := 0; rc < out.RecoveryEvents; rc++ {
		p := base
		p.RecoveryCrash = rc
		o, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if o.Failed() {
			t.Errorf("recovery crash at event %d: %s", rc, o.Violation)
		}
	}
}
