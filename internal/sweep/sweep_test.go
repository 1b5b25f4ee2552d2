package sweep

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/workload"
)

// tinySpec is a fast 2-bench × 3-variant grid.
func tinySpec() Spec {
	return Spec{
		Benches:     []string{"LL", "HM"},
		Variants:    []string{"Base", "Log+P+Sf", "SP"},
		Scale:       0.002,
		Seeds:       []int64{7},
		OpOverhead:  []int{50},
		MaxTraceOps: 40,
	}
}

func TestPlanDeterministic(t *testing.T) {
	a, err := Plan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 {
		t.Fatalf("planned %d jobs, want 6", len(a))
	}
	for i := range a {
		if a[i].Fingerprint() != b[i].Fingerprint() {
			t.Fatalf("job %d differs between identical plans", i)
		}
	}
}

func TestPlanNormalizesAndDedupes(t *testing.T) {
	// SSB sizes only matter for SP: Base must not be multiplied by the
	// SSB axis, and ssb=0 must collapse into the default 256.
	spec := Spec{
		Benches:     []string{"LL"},
		Variants:    []string{"Base", "SP"},
		Scale:       0.002,
		SSB:         []int{0, 256, 32},
		OpOverhead:  []int{50},
		MaxTraceOps: 40,
	}
	jobs, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 1 Base + 2 SP (256 deduped with 0, plus 32).
	if len(jobs) != 3 {
		for _, j := range jobs {
			t.Logf("  %s", j.Label())
		}
		t.Fatalf("planned %d jobs, want 3", len(jobs))
	}
}

func TestPlanRejectsBadSpecs(t *testing.T) {
	cases := []Spec{
		{Benches: []string{"XX"}},
		{Variants: []string{"Turbo"}},
		{Scale: 1e-9},
		{SSB: []int{-1}},
	}
	for i, spec := range cases {
		if _, err := Plan(spec); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
}

func TestKeyMatchesFingerprint(t *testing.T) {
	jobs, err := Plan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]string)
	for _, j := range jobs {
		k := Key(j)
		if len(k) != 64 {
			t.Fatalf("key %q is not a sha256 hex digest", k)
		}
		if prev, ok := seen[k]; ok && prev != j.Fingerprint() {
			t.Fatalf("distinct jobs share key %s", k)
		}
		seen[k] = j.Fingerprint()
		if Key(j) != k {
			t.Fatal("key not stable")
		}
	}
}

// TestBuildIdentity pins the cache's build rule: a committed or tagged
// build is named by its module version alone, while a "+dirty" or
// "(devel)" build, whose version every edit shares, also carries the
// hash of its executable, read only for those builds.
func TestBuildIdentity(t *testing.T) {
	for _, tc := range []struct {
		version, want string
		hashed        bool
	}{
		{"v1.2.0", "m@v1.2.0", false},
		{"v0.0.0-20261020110627-05c89b68d01c", "m@v0.0.0-20261020110627-05c89b68d01c", false},
		{"v0.0.0-20261020110627-05c89b68d01c+dirty", "m@v0.0.0-20261020110627-05c89b68d01c+dirty+exe.h", true},
		{"(devel)", "m@(devel)+exe.h", true},
	} {
		hashed := false
		got := buildIdentity("m", tc.version, func() string { hashed = true; return "h" })
		if got != tc.want || hashed != tc.hashed {
			t.Errorf("buildIdentity(%q) = %q (hashed %v), want %q (hashed %v)", tc.version, got, hashed, tc.want, tc.hashed)
		}
	}
	if a, b := buildIdentity("m", "(devel)", func() string { return "1" }), buildIdentity("m", "(devel)", func() string { return "2" }); a == b {
		t.Errorf("two (devel) executables share the identity %q", a)
	}
	if h := executableHash(); len(h) != 64 {
		t.Errorf("executableHash() = %q, want a sha256 hex digest", h)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := workload.NewJob(mustBench(t, "LL"), core.VariantBase, 0.002, 7)
	j.Config.OpOverhead = 50
	j.Config.MaxTraceOps = 40

	if _, ok := c.Get(j); ok {
		t.Fatal("hit on empty cache")
	}
	want, err := j.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(j, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(j)
	if !ok {
		t.Fatal("miss after put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cache returned a different result:\n%+v\n%+v", got, want)
	}

	// A corrupted entry must read as a miss, not as garbage.
	path := filepath.Join(c.dir, Key(j)+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(j); ok {
		t.Error("corrupt entry served as a hit")
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	j := workload.NewJob(mustBench(t, "LL"), core.VariantBase, 0.002, 7)
	if _, ok := c.Get(j); ok {
		t.Error("nil cache reported a hit")
	}
	if err := c.Put(j, workload.Result{}); err != nil {
		t.Errorf("nil cache Put failed: %v", err)
	}
}

func mustBench(t *testing.T, name string) workload.Bench {
	t.Helper()
	b, err := workload.FindBench(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelMatchesSerial is the core soundness property: a sweep at 8
// workers yields exactly the results of the serial sweep, in the same
// order. Run under -race this also proves the concurrent jobs share no
// state.
func TestParallelMatchesSerial(t *testing.T) {
	jobs, err := Plan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	serial, err := (&Engine{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Engine{Workers: 8}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("job %d (%s): parallel result differs from serial", i, jobs[i].Label())
		}
	}
}

// TestParallelForksOneImage: every job of this grid (one bench under
// Log+P+Sf and under SP at several SSB and checkpoint sizes) forks the
// same populated image, so at 8 workers the jobs build it once and fork it
// concurrently. Their results must be byte-identical to a serial sweep's.
// The seed is this test's own, so the parallel sweep, which runs first,
// finds no image to reuse. Run under -race this also proves the forks
// share no mutable state.
func TestParallelForksOneImage(t *testing.T) {
	jobs, err := Plan(Spec{
		Benches:     []string{"HM"},
		Variants:    []string{"Log+P+Sf", "SP"},
		Scale:       0.002,
		Seeds:       []int64{11},
		SSB:         []int{64, 128, 256, 512},
		Checkpoints: []int{2, 4},
		OpOverhead:  []int{50},
		MaxTraceOps: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Engine{Workers: 8}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := (&Engine{Workers: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		s, err := json.Marshal(serial[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		p, err := json.Marshal(parallel[i].Result)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s, p) {
			t.Errorf("job %d (%s): parallel result differs from serial:\n%s\n%s", i, jobs[i].Label(), p, s)
		}
	}
}

func TestEngineCacheResume(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Plan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	first, err := (&Engine{Workers: 4, Cache: c}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range first {
		if jr.Cached {
			t.Errorf("job %d cached on a cold cache", i)
		}
	}
	// A repeated (or resumed) sweep must skip every completed job.
	second, err := (&Engine{Workers: 4, Cache: c}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range second {
		if !jr.Cached {
			t.Errorf("job %d (%s) re-ran despite a warm cache", i, jobs[i].Label())
		}
		if !reflect.DeepEqual(first[i].Result, second[i].Result) {
			t.Errorf("job %d: cached result differs from computed", i)
		}
	}
}

func TestEngineInterruptedSweepResumes(t *testing.T) {
	// Simulate an interrupted sweep: only some jobs completed before the
	// kill. The rerun serves those from cache and computes the rest.
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := Plan(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Workers: 1, Cache: c}).Run(jobs[:2]); err != nil {
		t.Fatal(err)
	}
	all, err := (&Engine{Workers: 4, Cache: c}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range all {
		if want := i < 2; jr.Cached != want {
			t.Errorf("job %d: cached=%v, want %v", i, jr.Cached, want)
		}
	}
}

func TestEngineProgressOutput(t *testing.T) {
	// progress serializes writes under its mutex, so a plain buffer is
	// safe here even with several workers.
	var buf bytes.Buffer
	jobs, err := Plan(Spec{
		Benches:     []string{"LL"},
		Variants:    []string{"Base", "Log"},
		Scale:       0.002,
		OpOverhead:  []int{50},
		MaxTraceOps: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&Engine{Workers: 2, Progress: &buf}).Run(jobs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[2/2]") || !strings.Contains(out, "LL/") {
		t.Fatalf("unexpected progress output:\n%s", out)
	}
}
