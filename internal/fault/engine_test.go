package fault

import (
	"bytes"
	"encoding/json"
	"testing"

	"specpersist/internal/core"
)

// TestExhaustiveFullIsSafe is the package's central safety claim: under the
// fully fenced variant, an exhaustive crash-point campaign — with torn
// writes and re-crash-during-recovery enabled — finds zero atomicity
// violations on every structure. (The full seven-structure campaign runs in
// cmd/crashtest and CI; here a representative trio keeps the test fast.)
func TestExhaustiveFullIsSafe(t *testing.T) {
	structures := []string{"LL", "HM", "SS"}
	if testing.Short() {
		structures = []string{"LL"}
	}
	e := &Engine{Samples: 1, Torn: true, Recrash: true}
	rep, err := e.Run(Campaign{
		Structures: structures,
		Variant:    core.VariantLogPSf,
		Seed:       11,
		Warmup:     40,
		Ops:        2,
		Exhaustive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("fenced variant violated atomicity %d times: %+v", rep.Violations, rep.Structures)
	}
	if rep.Trials == 0 || rep.Crashes == 0 {
		t.Fatalf("campaign ran nothing: %+v", rep)
	}
	for _, sr := range rep.Structures {
		if sr.RecrashTrials == 0 {
			t.Errorf("%s: no crash-during-recovery trials ran", sr.Structure)
		}
		if sr.TornLines == 0 {
			t.Errorf("%s: no torn lines were injected", sr.Structure)
		}
	}
}

// TestLogPViolationFoundAndShrunk is the negative control: the unfenced
// variant must produce at least one violation, and its shrunk reproducer
// must replay deterministically from JSON.
func TestLogPViolationFoundAndShrunk(t *testing.T) {
	e := &Engine{Samples: 2, Torn: true, Shrink: true}
	rep, err := e.Run(Campaign{
		Structures: []string{"LL"},
		Variant:    core.VariantLogP,
		Seed:       1,
		Warmup:     40,
		Ops:        3,
		Exhaustive: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatal("Log+P reported no violations; the fences would be unnecessary")
	}
	var detail *ViolationDetail
	for i := range rep.Structures {
		if len(rep.Structures[i].Details) > 0 {
			detail = &rep.Structures[i].Details[0]
			break
		}
	}
	if detail == nil {
		t.Fatal("violations counted but no details kept")
	}
	if detail.Shrunk == nil {
		t.Fatal("shrinking was enabled but no shrunk plan reported")
	}
	if !detail.Deterministic {
		t.Fatalf("shrunk reproducer is not deterministic: %+v", *detail.Shrunk)
	}
	if detail.ShrunkViolation == "" {
		t.Fatal("shrunk plan no longer fails")
	}

	// The minimized plan must survive a JSON round trip and still fail
	// identically — the reproducer file a user saves must actually work.
	data, err := json.Marshal(*detail.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	var replayed Plan
	if err := json.Unmarshal(data, &replayed); err != nil {
		t.Fatal(err)
	}
	out, err := Run(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation != detail.ShrunkViolation {
		t.Fatalf("JSON replay diverged: got %q want %q", out.Violation, detail.ShrunkViolation)
	}

	// Shrinking must actually simplify: the minimized plan's crash index
	// and fate list can never exceed the original's.
	if detail.Shrunk.CrashIndex > detail.Plan.CrashIndex || len(detail.Shrunk.Fates) > len(detail.Plan.Fates) {
		t.Errorf("shrunk plan is larger than the original:\norig:   %+v\nshrunk: %+v", detail.Plan, *detail.Shrunk)
	}
}

// TestCampaignDeterministicAcrossWorkers re-runs the same campaigns with 1
// and 8 workers; the report JSON must be byte-identical. Every trial forks
// from a prefix the workers share, and the Log+P campaign shrinks its
// violations, so under -race this also checks that concurrent trials only
// read the prefixes.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int, c Campaign) []byte {
		e := &Engine{Workers: workers, Samples: 1, Torn: true, Recrash: true, Shrink: true}
		rep, err := e.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	for _, c := range []Campaign{
		{Structures: []string{"HM", "BT", "VT"}, Variant: core.VariantLogPSf, Seed: 21, Warmup: 30, Ops: 2, Exhaustive: true},
		{Structures: []string{"LL"}, Variant: core.VariantLogP, Seed: 5, Warmup: 20, Ops: 2, Exhaustive: true},
	} {
		if a, b := run(1, c), run(8, c); !bytes.Equal(a, b) {
			t.Fatalf("%s: worker count changed the report:\n1 worker:  %s\n8 workers: %s", c.Variant, a, b)
		}
	}
}

// TestRandomizedCampaignReplayable checks the non-exhaustive mode: sampled
// trials carry recorded fates, so any trial is replayable.
func TestRandomizedCampaignReplayable(t *testing.T) {
	e := &Engine{Samples: 1, Torn: true}
	rep, err := e.Run(Campaign{
		Structures: []string{"LL"},
		Variant:    core.VariantLogPSf,
		Seed:       9,
		Warmup:     30,
		Trials:     40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trials != 40 {
		t.Fatalf("ran %d trials, want 40", rep.Trials)
	}
	if rep.Violations != 0 {
		t.Fatalf("fenced variant violated atomicity: %+v", rep.Structures)
	}
}

func TestCampaignRejectsBase(t *testing.T) {
	e := &Engine{}
	if _, err := e.Run(Campaign{Variant: core.VariantBase}); err == nil {
		t.Fatal("Base variant accepted; it has no recovery to test")
	}
}

// TestCampaignRejectsNegativeSamples: a negative sample count would leave
// an exhaustive campaign no trials at all, a vacuous pass.
func TestCampaignRejectsNegativeSamples(t *testing.T) {
	e := &Engine{Samples: -1}
	rep, err := e.Run(Campaign{Structures: []string{"LL"}, Variant: core.VariantLogPSf, Exhaustive: true})
	if err == nil {
		t.Fatalf("Samples -1 accepted: %d trials", rep.Trials)
	}
}
