package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specpersist/internal/core"
)

var updateImageDigests = flag.Bool("update", false, "rewrite testdata/forked_image_digests.json")

// imageCase is one configuration of the forked-image test.
type imageCase struct {
	label string
	b     Bench
	rc    RunConfig
}

// imageCases lists every Table 1 bench under every Figure 8 variant, with
// BT's incremental-logging runs right after BT's others. Configurations
// whose image keys differ in a single field run next to each other (Base
// then Log; BT under SP then incremental BT), so a key that dropped that
// field would hand the second run the first one's image.
func imageCases() []imageCase {
	var out []imageCase
	for _, b := range Table1() {
		for _, v := range core.Variants() {
			out = append(out, imageCase{b.Name + "/" + v.String(), b, tinyRC(v)})
		}
		if b.Name == "BT" {
			for _, v := range []core.Variant{core.VariantSP, core.VariantLogPSf} {
				rc := tinyRC(v)
				rc.IncrementalBT = true
				out = append(out, imageCase{b.Name + "/" + v.String() + "/incremental", b, rc})
			}
		}
	}
	return out
}

// resultDigest is the sha256 of r's JSON, Metrics included.
func resultDigest(t *testing.T, r Result) string {
	t.Helper()
	j, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(j)
	return hex.EncodeToString(sum[:])
}

// TestForkedImageMatchesFresh runs each configuration twice: first right
// after the slot was taken by the previous configuration's key, so the
// image is built for it, then again, so it forks the slot's image. Both
// results must equal the digest recorded when every run populated its own
// structure (the code before the image slot). The recording pins what a
// fork must carry: population's pmem and txn counters, and the after-init
// Check's loads counted once. Run with -update only after an intended
// change in simulated behaviour.
func TestForkedImageMatchesFresh(t *testing.T) {
	path := filepath.Join("testdata", "forked_image_digests.json")
	recorded := map[string]string{}
	if !*updateImageDigests {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if err := json.Unmarshal(b, &recorded); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	got := map[string]string{}
	for _, c := range imageCases() {
		built, err := Run(c.b, c.rc)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		forked, err := Run(c.b, c.rc)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		d := resultDigest(t, built)
		if f := resultDigest(t, forked); f != d {
			t.Errorf("%s: run forking the slot's image has digest %s, run building it %s", c.label, f, d)
		}
		got[c.label] = d
		if !*updateImageDigests && recorded[c.label] != d {
			t.Errorf("%s: result digest %s, recorded %s", c.label, d, recorded[c.label])
		}
	}
	if *updateImageDigests {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(recorded) != len(got) {
		t.Errorf("%s has %d entries, the test ran %d", path, len(recorded), len(got))
	}
}
