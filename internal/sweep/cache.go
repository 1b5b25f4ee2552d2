package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"

	"specpersist/internal/workload"
)

// schemaVersion is folded into every cache key. Bump it whenever the
// simulator's timing model changes in a way the job fingerprint cannot
// see — or the Result schema itself grows — so stale results from an
// older model can never be served.
//
// v2: Result gained the unified Metrics snapshot (internal/obs); v1
// entries lack it and must not satisfy v2 lookups.
//
// v3: the pmem registry gained the "pmem.torn_lines" key, so v2 snapshots
// have a different key set than the current model produces.
//
// v4: the SP registry gained "cpu.sp.rollback_cycles", so v3 SP snapshots
// have a different key set than the current model produces.
//
// Forking each run from a shared populated image (workload.NewGenerator)
// needed no bump: every Result, Metrics included, is byte-identical.
//
// v5: the job fingerprint carries SP sizes only in the resolved Options.
const schemaVersion = 5

// DefaultCacheDir is where sweeps cache results unless told otherwise.
const DefaultCacheDir = ".sweepcache"

// moduleVersion identifies the build embedded in cache keys: results are
// only reusable across runs of the same module version. A development
// build reports "(devel)", which still separates cached results from any
// tagged release.
func moduleVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		return bi.Main.Path + "@" + bi.Main.Version
	}
	return "unknown"
}

// Key returns the job's content address: a SHA-256 over the canonical job
// fingerprint, the cache schema version, and the module version. Equal
// keys imply equal Results.
func Key(j workload.Job) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\nmodule=%s\n%s", schemaVersion, moduleVersion(), j.Fingerprint())
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a content-addressed store of completed run results: one JSON
// file per key under Dir. Writes are atomic (temp file + rename), so an
// interrupted sweep never leaves a partial entry behind, and concurrent
// writers of the same key are harmless (last rename wins with identical
// content).
type Cache struct {
	dir string
}

// OpenCache creates (if needed) and opens a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// entry is the on-disk cache record. Fingerprint is stored alongside the
// result so a hash collision (or a hand-edited file) is detected instead
// of silently served.
type entry struct {
	Fingerprint string
	Result      workload.Result
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the cached result for a job, if present and valid. Corrupt
// or mismatched entries are treated as misses.
func (c *Cache) Get(j workload.Job) (workload.Result, bool) {
	if c == nil {
		return workload.Result{}, false
	}
	data, err := os.ReadFile(c.path(Key(j)))
	if err != nil {
		return workload.Result{}, false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Fingerprint != j.Fingerprint() {
		return workload.Result{}, false
	}
	return e.Result, true
}

// Put stores a completed result under the job's key.
func (c *Cache) Put(j workload.Job, r workload.Result) error {
	if c == nil {
		return nil
	}
	data, err := json.MarshalIndent(entry{Fingerprint: j.Fingerprint(), Result: r}, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode cache entry: %w", err)
	}
	final := c.path(Key(j))
	tmp, err := os.CreateTemp(c.dir, "tmp-*.json")
	if err != nil {
		return fmt.Errorf("sweep: write cache entry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("sweep: write cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("sweep: write cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("sweep: write cache entry: %w", err)
	}
	return nil
}
