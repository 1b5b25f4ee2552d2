package vstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"specpersist/internal/exec"
	"specpersist/internal/pmem"
)

// Branch abandons the in-flight changeset and rebases the working set on
// committed version v. The next Commit still allocates the next linear
// version number, but its manifest entry records v as the parent — history
// stays an append-only array, lineage lives in the parent links.
func (s *Store) Branch(v uint64) error {
	if v > s.version {
		return fmt.Errorf("vstore: branch from version %d, only %d committed", v, s.version)
	}
	m := s.env.M
	e := s.entryAddr(v)
	s.root = m.ReadU64(e + meRoot)
	s.count = m.ReadU64(e + meCount)
	s.parent = v
	s.fresh = s.fresh[:0]
	clear(s.inflight)
	s.dirty = false
	s.stats.Branches++
	return nil
}

// Delete removes key from the working set, reporting whether it was present.
func (s *Store) Delete(key uint64) bool {
	if _, ok := s.Get(key); !ok {
		return false
	}
	s.deleteKnown(key)
	return true
}

// ApplyDiff applies a Diff result to a plain map — the model-side patch
// operation the property tests use to prove Diff(v1,v2) turns v1 into v2.
func ApplyDiff(base map[uint64]uint64, d []DiffEntry) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(base))
	for k, v := range base {
		out[k] = v
	}
	for _, e := range d {
		if e.Op == DiffDel {
			delete(out, e.Key)
		} else {
			out[e.Key] = e.Val
		}
	}
	return out
}

// applyRandomOp mutates both the store and the model identically.
func applyRandomOp(s *Store, model map[uint64]uint64, rng *rand.Rand) {
	key := uint64(rng.Intn(200))
	switch rng.Intn(3) {
	case 0:
		val := rng.Uint64()
		s.Put(key, val)
		model[key] = val
	case 1:
		s.Delete(key)
		delete(model, key)
	default:
		val := rng.Uint64()
		if _, ok := model[key]; ok {
			s.Delete(key)
			delete(model, key)
		} else {
			s.Put(key, val)
			model[key] = val
		}
	}
}

func cloneModel(m map[uint64]uint64) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestModelOracleEveryVersion drives N random ops with interspersed
// commits against a map model and then checks every committed version's
// Snapshot (and spot GetAt reads) against the model history.
func TestModelOracleEveryVersion(t *testing.T) {
	env := exec.New()
	s := New(env, Config{FreeValues: true})
	rng := rand.New(rand.NewSource(7))
	model := make(map[uint64]uint64)
	history := []map[uint64]uint64{cloneModel(model)} // version 0 = empty
	commit := func() {
		// An op stream can net to nothing (e.g. deleting absent keys), in
		// which case Commit mints no version.
		if v := s.Commit(); int(v) == len(history) {
			history = append(history, cloneModel(model))
		}
	}
	for i := 0; i < 600; i++ {
		applyRandomOp(s, model, rng)
		if rng.Intn(5) == 0 {
			commit()
		}
	}
	commit()

	if got, want := s.Versions(), len(history); got != want {
		t.Fatalf("Versions() = %d, committed %d", got, want)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
	for v, want := range history {
		got := s.Snapshot(uint64(v))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("version %d: snapshot has %d keys, model %d", v, len(got), len(want))
		}
		for k, wv := range want {
			if gv, ok := s.GetAt(k, uint64(v)); !ok || gv != wv {
				t.Fatalf("version %d: GetAt(%d) = (%d,%v), want %d", v, k, gv, ok, wv)
			}
		}
	}
}

// TestDiffRoundTrip checks that Diff(v1,v2) applied to v1's snapshot
// reproduces v2 exactly, for every ordered version pair.
func TestDiffRoundTrip(t *testing.T) {
	env := exec.New()
	s := New(env, Config{FreeValues: true})
	rng := rand.New(rand.NewSource(11))
	model := make(map[uint64]uint64)
	for c := 0; c < 12; c++ {
		for i := 0; i < 40; i++ {
			applyRandomOp(s, model, rng)
		}
		if !s.Dirty() {
			s.Put(uint64(c), uint64(c)) // ensure the commit mints a version
			model[uint64(c)] = uint64(c)
		}
		s.Commit()
	}
	n := uint64(s.Versions())
	for v1 := uint64(0); v1 < n; v1++ {
		for v2 := uint64(0); v2 < n; v2++ {
			got := ApplyDiff(s.Snapshot(v1), s.Diff(v1, v2))
			want := s.Snapshot(v2)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ApplyDiff(v%d, Diff(v%d,v%d)): %d keys, want %d", v1, v1, v2, len(got), len(want))
			}
		}
	}
	if s.stats.Diffs != n*n {
		t.Fatalf("Diffs counter = %d, want %d", s.stats.Diffs, n*n)
	}
}

// TestBranch rebases the working set on an older version: in-flight edits
// vanish, the next commit records the branch point as parent, and its
// content equals the branch base plus the new edits.
func TestBranch(t *testing.T) {
	env := exec.New()
	s := New(env, Config{})
	for k := uint64(0); k < 20; k++ {
		s.Toggle(k)
	}
	v1 := s.Commit()
	for k := uint64(20); k < 40; k++ {
		s.Toggle(k)
	}
	s.Commit()

	s.Toggle(99) // in-flight edit that Branch must discard
	if err := s.Branch(v1); err != nil {
		t.Fatalf("Branch: %v", err)
	}
	s.Toggle(50)
	v3 := s.Commit()

	if p := s.Parent(v3); p != v1 {
		t.Fatalf("Parent(v%d) = %d, want %d", v3, p, v1)
	}
	snap := s.Snapshot(v3)
	if len(snap) != 21 {
		t.Fatalf("branched version has %d keys, want 21", len(snap))
	}
	if _, ok := snap[99]; ok {
		t.Fatal("discarded in-flight key 99 leaked into the branch commit")
	}
	if _, ok := snap[50]; !ok {
		t.Fatal("branch edit 50 missing")
	}
	if _, ok := snap[25]; ok {
		t.Fatal("key 25 from the abandoned lineage present in the branch")
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

// TestCrashRecovery cuts power with a changeset in flight: recovery lands
// on the last committed version, idempotently.
func TestCrashRecovery(t *testing.T) {
	env := exec.New()
	s := New(env, Config{})
	for k := uint64(0); k < 30; k++ {
		s.Toggle(k)
	}
	committed := s.Commit()
	env.M.PersistAll()
	want := s.Snapshot(committed)

	for k := uint64(100); k < 120; k++ {
		s.Toggle(k) // in-flight, never committed
	}
	env.Crash(pmem.CrashOptions{})

	if !s.Recover() {
		t.Fatal("Recover discarded nothing despite an in-flight changeset")
	}
	if s.Recover() {
		t.Fatal("second Recover is not a no-op")
	}
	if s.Version() != committed {
		t.Fatalf("recovered to version %d, want %d", s.Version(), committed)
	}
	if err := s.Check(); err != nil {
		t.Fatalf("Check after recovery: %v", err)
	}
	if got := s.Snapshot(committed); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered snapshot has %d keys, want %d", len(got), len(want))
	}
	for k := uint64(100); k < 120; k++ {
		if _, ok := s.Get(k); ok {
			t.Fatalf("in-flight key %d survived the crash", k)
		}
	}
}

// TestCommitBarrierProfile pins the headline property: one commit of many
// ops costs exactly two persist barriers (two pcommits), and an empty
// commit costs none.
func TestCommitBarrierProfile(t *testing.T) {
	env := exec.New()
	s := New(env, Config{})
	base := env.M.Stats().Pcommits
	for k := uint64(0); k < 64; k++ {
		s.Toggle(k)
	}
	s.Commit()
	if got := env.M.Stats().Pcommits - base; got != 2 {
		t.Fatalf("changeset commit issued %d pcommits, want 2", got)
	}
	base = env.M.Stats().Pcommits
	s.Commit()
	if got := env.M.Stats().Pcommits - base; got != 0 {
		t.Fatalf("empty commit issued %d pcommits, want 0", got)
	}
	st := s.stats
	if st.Commits != 1 || st.EmptyCommits != 1 || st.Barriers != 2 {
		t.Fatalf("stats = %+v, want 1 commit / 1 empty / 2 barriers", st)
	}
	if st.NodesWritten == 0 || st.TimeTravelGets != 0 {
		t.Fatalf("stats = %+v, want nodes written and no time-travel reads", st)
	}
}

// TestTimeTravelCounter: committed-version reads count as time travel only
// while a changeset is in flight.
func TestTimeTravelCounter(t *testing.T) {
	env := exec.New()
	s := New(env, Config{})
	s.Toggle(1)
	s.Commit()
	s.GetCommitted(1)
	if n := s.stats.TimeTravelGets; n != 0 {
		t.Fatalf("clean-state committed read counted as time travel (%d)", n)
	}
	s.Toggle(2)
	if _, ok := s.GetCommitted(1); !ok {
		t.Fatal("committed key 1 unreadable mid-changeset")
	}
	if _, ok := s.GetCommitted(2); ok {
		t.Fatal("in-flight key 2 visible through GetCommitted")
	}
	if n := s.stats.TimeTravelGets; n != 2 {
		t.Fatalf("TimeTravelGets = %d, want 2", n)
	}
}

// TestChunkLocality: a single edit in a 512-key version perturbs only the
// chunks adjacent to it; everything else is shared between the versions.
func TestChunkLocality(t *testing.T) {
	env := exec.New()
	s := New(env, Config{})
	for k := uint64(0); k < 512; k++ {
		s.Toggle(k)
	}
	v1 := s.Commit()
	s.Toggle(256)
	v2 := s.Commit()

	c1, err := s.ChunkBoundaries(v1, 4)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.ChunkBoundaries(v2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) < 8 {
		t.Fatalf("only %d chunks at maskBits 4 over 512 entries", len(c1))
	}
	set1 := make(map[Chunk]bool, len(c1))
	for _, c := range c1 {
		set1[c] = true
	}
	shared := 0
	for _, c := range c2 {
		if set1[c] {
			shared++
		}
	}
	if changed := len(c2) - shared; changed > 3 {
		t.Fatalf("one edit changed %d of %d chunks; content-defined boundaries should localize it", changed, len(c2))
	}
}

// TestDeterminism: the same op/commit sequence produces byte-identical
// version history and stats on two independent stores.
func TestDeterminism(t *testing.T) {
	run := func() (*Store, *exec.Env) {
		env := exec.New()
		s := New(env, Config{})
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			s.Toggle(uint64(rng.Intn(64)))
			if rng.Intn(7) == 0 {
				s.Commit()
			}
		}
		s.Commit()
		return s, env
	}
	a, aenv := run()
	b, benv := run()
	if a.stats != b.stats {
		t.Fatalf("stats diverge: %+v vs %+v", a.stats, b.stats)
	}
	if aenv.M.Stats().Pcommits != benv.M.Stats().Pcommits {
		t.Fatal("pcommit counts diverge")
	}
	for v := uint64(0); v <= a.Version(); v++ {
		if !reflect.DeepEqual(a.Snapshot(v), b.Snapshot(v)) {
			t.Fatalf("version %d snapshots diverge", v)
		}
	}
}

// TestManifestOverflowPanics pins the clear failure mode when a workload
// outgrows the configured version capacity.
func TestManifestOverflowPanics(t *testing.T) {
	env := exec.New()
	s := New(env, Config{Versions: 3})
	s.Toggle(1)
	s.Commit()
	s.Toggle(2)
	s.Commit()
	s.Toggle(3)
	defer func() {
		if recover() == nil {
			t.Fatal("commit past manifest capacity did not panic")
		}
	}()
	s.Commit()
}
