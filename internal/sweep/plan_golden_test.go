package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// planSpecs are the specs whose job lists are pinned: the standard grid,
// the specs of this package's tests, and one that crosses every axis.
var planSpecs = map[string]Spec{
	"standard": {},
	"tiny":     tinySpec(),
	"normalize": {
		Benches: []string{"LL"}, Variants: []string{"Base", "SP"}, Scale: 0.002,
		SSB: []int{0, 256, 32}, OpOverhead: []int{50}, MaxTraceOps: 40,
	},
	"forks": {
		Benches: []string{"HM"}, Variants: []string{"Log+P+Sf", "SP"}, Scale: 0.002,
		Seeds: []int64{11}, SSB: []int{64, 128, 256, 512}, Checkpoints: []int{2, 4},
		OpOverhead: []int{50}, MaxTraceOps: 40,
	},
	"every-axis": {
		Benches: []string{"BT", "GH"}, Variants: []string{"SP", "Log", "Log+P+Sf"}, Scale: 0.01,
		Seeds: []int64{3, 1}, SSB: []int{512, 0}, Checkpoints: []int{0, 8}, Banks: []int{4, 0, 2},
		OpOverhead: []int{-1, 0, 400}, MaxTraceOps: 7,
	},
}

// planDigests are the job counts and fingerprint-sequence digests each
// spec planned when Plan was written as nested loops; any other order,
// normalization or deduplication changes them.
var planDigests = map[string]string{
	"standard":   "31ea4e50c4906561/35",
	"tiny":       "d75dad61f44d4f1c/6",
	"normalize":  "88ff0f553781f37c/3",
	"forks":      "d88de9aa1a9732bd/9",
	"every-axis": "e75d756b843811c2/216",
}

func planDigest(t *testing.T, spec Spec) string {
	t.Helper()
	jobs, err := Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, j := range jobs {
		h.Write([]byte(j.Fingerprint()))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%s/%d", hex.EncodeToString(h.Sum(nil))[:16], len(jobs))
}

func TestPlanGolden(t *testing.T) {
	for name, spec := range planSpecs {
		if got := planDigest(t, spec); got != planDigests[name] {
			t.Errorf("%s: plan digest %s, pinned %s", name, got, planDigests[name])
		}
	}
}
