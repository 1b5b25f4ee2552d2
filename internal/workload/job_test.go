package workload

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/obs"
)

// tinyJob is a fast job for engine-level tests.
func tinyJob(v core.Variant) Job {
	b, _ := FindBench("LL")
	return Job{Bench: b, Config: tinyRC(v)}
}

func TestRunDeterministic(t *testing.T) {
	// The cache and the parallel sweep are only sound if Run is a pure
	// function of (bench, config); run the same job twice and demand
	// identical Results down to every counter.
	for _, v := range []core.Variant{core.VariantBase, core.VariantLogPSf, core.VariantSP} {
		j := tinyJob(v)
		r1, err := j.Run()
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		r2, err := j.Run()
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Errorf("%s: same job produced different results:\n%+v\n%+v", v, r1, r2)
		}
	}
}

func TestFingerprintCanonicalizesDefaults(t *testing.T) {
	b, _ := FindBench("LL")
	plain := Job{Bench: b, Config: RunConfig{Variant: core.VariantSP, Scale: 0.01, Seed: 1}}

	// Spelling out the SP256 design point is the same machine.
	def := core.DefaultOptions()
	def.CPU.SP = cpu.DefaultSPConfig()
	explicit := plain
	explicit.Config.Options = &def
	if plain.Fingerprint() != explicit.Fingerprint() {
		t.Error("explicit SP256 options changed the fingerprint")
	}

	// Non-speculative variants ignore the SP hardware entirely.
	base := Job{Bench: b, Config: RunConfig{Variant: core.VariantBase, Scale: 0.01, Seed: 1}}
	baseSSB := base
	ssb := def
	ssb.CPU.SP.SSBEntries = 512
	baseSSB.Config.Options = &ssb
	if base.Fingerprint() != baseSSB.Fingerprint() {
		t.Error("SSB size leaked into a Base fingerprint")
	}

	// Explicit default options match nil options.
	opts := core.DefaultOptions()
	withOpts := plain
	withOpts.Config.Options = &opts
	if plain.Fingerprint() != withOpts.Fingerprint() {
		t.Error("explicit default Options changed the fingerprint")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	b, _ := FindBench("LL")
	base := Job{Bench: b, Config: RunConfig{Variant: core.VariantSP, Scale: 0.01, Seed: 1}}
	mutations := map[string]func(*Job){
		"seed":     func(j *Job) { j.Config.Seed = 2 },
		"scale":    func(j *Job) { j.Config.Scale = 0.02 },
		"variant":  func(j *Job) { j.Config.Variant = core.VariantLogPSf },
		"ssb":      func(j *Job) { j.Config.Options.CPU.SP.SSBEntries = 32 },
		"ckpt":     func(j *Job) { j.Config.Options.CPU.SP.Checkpoints = 2 },
		"overhead": func(j *Job) { j.Config.OpOverhead = 10 },
		"maxops":   func(j *Job) { j.Config.MaxTraceOps = 5 },
		"banks": func(j *Job) {
			opts := core.DefaultOptions()
			opts.Mem.Banks = 4
			j.Config.Options = &opts
		},
		"bench": func(j *Job) { j.Bench, _ = FindBench("HM") },
	}
	for name, mutate := range mutations {
		j := base
		sp := core.DefaultOptions().For(core.VariantSP)
		j.Config.Options = &sp
		mutate(&j)
		if j.Fingerprint() == base.Fingerprint() {
			t.Errorf("mutation %q did not change the fingerprint", name)
		}
	}
}

func TestNormalizeDoesNotChangeResult(t *testing.T) {
	// A normalized job must run the exact same simulation.
	j := tinyJob(core.VariantSP)
	r1, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j.Normalize().Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("normalized job produced a different result")
	}
}

func TestValidateDegenerateScale(t *testing.T) {
	b, _ := FindBench("LL")
	bad := Job{Bench: b, Config: RunConfig{Variant: core.VariantBase, Scale: 1e-9}}
	err := bad.Validate()
	if err == nil {
		t.Fatal("degenerate scale accepted")
	}
	if !strings.Contains(err.Error(), "zero ops") {
		t.Errorf("unhelpful error: %v", err)
	}
	ok := Job{Bench: b, Config: RunConfig{Variant: core.VariantBase, Scale: 0.01}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid scale rejected: %v", err)
	}
}

func TestSerialRunner(t *testing.T) {
	jobs := []Job{tinyJob(core.VariantBase), tinyJob(core.VariantLog)}
	rs, err := SerialRunner{}.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, j := range jobs {
		want := MustRun(j.Bench, j.Config)
		if !reflect.DeepEqual(rs[i], want) {
			t.Errorf("job %d result differs from direct run", i)
		}
	}
}

func TestMetricsSnapshotDeterministic(t *testing.T) {
	// The unified snapshot must be byte-deterministic: same job, same
	// serialized metrics (the sweep cache and -j byte-identity depend on
	// it). encoding/json sorts map keys, so equal maps imply equal bytes.
	j := tinyJob(core.VariantSP)
	r1, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Metrics, r2.Metrics) {
		t.Fatalf("metrics differ across identical runs:\n%v\n%v", r1.Metrics, r2.Metrics)
	}
	b1, err := json.Marshal(r1.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(r2.Metrics)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("serialized metrics differ:\n%s\n%s", b1, b2)
	}
	// Every layer contributes to the one snapshot.
	for _, prefix := range []string{"cpu.", "cache.", "mem.", "pmem.", "txn."} {
		found := false
		for k := range r1.Metrics {
			if strings.HasPrefix(k, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("snapshot has no %q keys", prefix)
		}
	}
	if r1.Metrics[obs.KeyCycles] != r1.Stats.Cycles {
		t.Errorf("snapshot cycles %d != Stats cycles %d", r1.Metrics[obs.KeyCycles], r1.Stats.Cycles)
	}
}
