package pstruct

import (
	"math/rand"
	"os"
	"sort"
	"testing"

	"specpersist/internal/exec"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
)

func TestMain(m *testing.M) {
	Audit = true // every store must hit a logged or fresh line
	os.Exit(m.Run())
}

// testConfig keeps structures small so collisions, resizes and deep
// rebalancing all happen within a few thousand operations.
var testConfig = Config{HashCapacity: 16, GraphVerts: 16, Strings: 8}

func newFullEnv(t *testing.T) (*exec.Env, *txn.Manager) {
	t.Helper()
	env := exec.New()
	env.Level = exec.LevelFull
	return env, txn.NewManager(env, 2048)
}

// canon maps an operation key to the canonical element it toggles.
func canon(name string, key uint64, cfg Config) uint64 {
	if name == "GH" {
		nv := uint64(cfg.GraphVerts)
		return (key%nv)*nv + (key/nv)%nv
	}
	return key
}

// runOracle applies n random operations from the given keyspace, mirroring
// membership in a Go map and validating invariants periodically.
func runOracle(t *testing.T, s Structure, name string, n, keyspace int, seed int64) map[uint64]bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	oracle := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		key := uint64(rng.Intn(keyspace))
		s.Apply(key)
		ck := canon(name, key, testConfig)
		oracle[ck] = !oracle[ck]
		if i%257 == 0 {
			if err := s.Check(); err != nil {
				t.Fatalf("%s: op %d (key %d): %v", name, i, key, err)
			}
		}
	}
	if err := s.Check(); err != nil {
		t.Fatalf("%s: final check: %v", name, err)
	}
	live := 0
	for _, in := range oracle {
		if in {
			live++
		}
	}
	if s.Size() != live {
		t.Fatalf("%s: size %d, oracle says %d", name, s.Size(), live)
	}
	return oracle
}

func checkMembership(t *testing.T, s Structure, name string, oracle map[uint64]bool, keyspace int) {
	t.Helper()
	seen := make(map[uint64]bool)
	for key := 0; key < keyspace; key++ {
		ck := canon(name, uint64(key), testConfig)
		if seen[ck] {
			continue
		}
		seen[ck] = true
		if got, want := s.Contains(uint64(key)), oracle[ck]; got != want {
			t.Errorf("%s: Contains(%d) = %v, oracle %v", name, key, got, want)
		}
	}
}

func TestOpsAgainstOracle(t *testing.T) {
	for _, name := range []string{"GH", "HM", "LL", "AT", "BT", "RT"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env, mgr := newFullEnv(t)
			s := Build(name, env, mgr, testConfig)
			env.M.PersistAll()
			oracle := runOracle(t, s, name, 3000, 300, 1)
			checkMembership(t, s, name, oracle, 300)
		})
	}
}

func TestOpsBaselineVariant(t *testing.T) {
	// Base variant: no transactions, PMEM level elided entirely.
	for _, name := range []string{"GH", "HM", "LL", "AT", "BT", "RT"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env := exec.New()
			env.Level = exec.LevelLog
			s := Build(name, env, nil, testConfig)
			oracle := runOracle(t, s, name, 1500, 200, 2)
			checkMembership(t, s, name, oracle, 200)
		})
	}
	t.Run("SS", func(t *testing.T) {
		env := exec.New()
		env.Level = exec.LevelLog
		s := NewStringSwap(env, nil, testConfig.Strings)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 500; i++ {
			s.Apply(rng.Uint64())
		}
		if err := s.Check(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStringSwapOracle(t *testing.T) {
	env, mgr := newFullEnv(t)
	s := NewStringSwap(env, mgr, testConfig.Strings)
	env.M.PersistAll()
	n := uint64(testConfig.Strings)
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 2000; op++ {
		key := rng.Uint64()
		i := key % n
		j := (key / n) % n
		if i == j {
			j = (j + 1) % n
		}
		s.Apply(key)
		ids[i], ids[j] = ids[j], ids[i]
		if op%101 == 0 {
			if err := s.Check(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if got := s.IdentityAt(i); got != ids[i] {
			t.Errorf("slot %d: identity %d, want %d", i, got, ids[i])
		}
	}
	if int(s.swaps) != 2000 {
		t.Errorf("swaps = %d, want 2000", int(s.swaps))
	}
}

// TestTracesAreValid runs each structure with a validating trace sink: any
// use-before-def or double register write panics.
func TestTracesAreValid(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			env, mgr := newFullEnv(t)
			var cnt trace.CountSink
			env.SetBuilder(trace.NewBuilder(trace.NewValidator(&cnt)))
			s := Build(name, env, mgr, testConfig)
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 200; i++ {
				s.Apply(uint64(rng.Intn(100)))
			}
			if cnt.Total == 0 {
				t.Fatal("no instructions emitted")
			}
		})
	}
}

func TestSortedInsertionsTrees(t *testing.T) {
	// Ascending then descending keys: rotation torture for all trees.
	for _, name := range []string{"AT", "BT", "RT"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env, mgr := newFullEnv(t)
			s := Build(name, env, mgr, testConfig)
			for k := 0; k < 512; k++ {
				s.Apply(uint64(k))
			}
			if err := s.Check(); err != nil {
				t.Fatalf("after ascending inserts: %v", err)
			}
			if s.Size() != 512 {
				t.Fatalf("size %d, want 512", s.Size())
			}
			// Delete every even key (descending).
			for k := 510; k >= 0; k -= 2 {
				s.Apply(uint64(k))
			}
			if err := s.Check(); err != nil {
				t.Fatalf("after deletions: %v", err)
			}
			if s.Size() != 256 {
				t.Fatalf("size %d, want 256", s.Size())
			}
			for k := 0; k < 512; k++ {
				want := k%2 == 1
				if got := s.Contains(uint64(k)); got != want {
					t.Fatalf("Contains(%d) = %v, want %v", k, got, want)
				}
			}
		})
	}
}

func TestTreeDrainToEmpty(t *testing.T) {
	for _, name := range []string{"AT", "BT", "RT", "LL"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env, mgr := newFullEnv(t)
			s := Build(name, env, mgr, testConfig)
			keys := rand.New(rand.NewSource(5)).Perm(300)
			for _, k := range keys {
				s.Apply(uint64(k)) // insert all
			}
			for _, k := range rand.New(rand.NewSource(6)).Perm(300) {
				s.Apply(uint64(keys[k])) // delete all
			}
			if s.Size() != 0 {
				t.Fatalf("size %d after drain, want 0", s.Size())
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestHashMapResize(t *testing.T) {
	env, mgr := newFullEnv(t)
	h := NewHashMap(env, mgr, 8)
	start := h.Capacity()
	for k := 0; k < 200; k++ {
		h.Apply(uint64(k))
	}
	if h.Capacity() <= start {
		t.Fatalf("capacity %d did not grow from %d", h.Capacity(), start)
	}
	if h.Size() != 200 {
		t.Fatalf("size %d, want 200", h.Size())
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 200; k++ {
		if !h.Contains(uint64(k)) {
			t.Fatalf("key %d lost in resize", k)
		}
	}
}

func TestHashMapTombstoneReuse(t *testing.T) {
	env, mgr := newFullEnv(t)
	h := NewHashMap(env, mgr, 64)
	for k := 0; k < 30; k++ {
		h.Apply(uint64(k)) // insert
	}
	for k := 0; k < 30; k++ {
		h.Apply(uint64(k)) // delete (tombstones)
	}
	if h.Size() != 0 {
		t.Fatalf("size %d, want 0", h.Size())
	}
	for k := 0; k < 30; k++ {
		h.Apply(uint64(k)) // reinsert through tombstones
	}
	if h.Size() != 30 {
		t.Fatalf("size %d, want 30", h.Size())
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestGraphEdges(t *testing.T) {
	env, mgr := newFullEnv(t)
	g := NewGraph(env, mgr, 4)
	// key = u + v*4 toggles edge (u, v).
	g.Apply(1 + 2*4) // add 1->2
	g.Apply(1 + 3*4) // add 1->3
	g.Apply(2 + 1*4) // add 2->1
	if !g.HasEdge(1, 2) || !g.HasEdge(1, 3) || !g.HasEdge(2, 1) {
		t.Fatal("edges missing after insert")
	}
	if g.Size() != 3 {
		t.Fatalf("edge count %d, want 3", g.Size())
	}
	g.Apply(1 + 2*4) // remove 1->2
	if g.HasEdge(1, 2) {
		t.Fatal("edge 1->2 survived delete")
	}
	if g.HasEdge(2, 2) || g.HasEdge(3, 1) {
		t.Fatal("phantom edges")
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestListOrdering(t *testing.T) {
	env, mgr := newFullEnv(t)
	l := NewList(env, mgr)
	for _, k := range []uint64{5, 1, 9, 3, 7} {
		l.Apply(k)
	}
	got := l.Keys()
	want := []uint64{1, 3, 5, 7, 9}
	if len(got) != len(want) {
		t.Fatalf("keys = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	l.Apply(5) // delete middle
	l.Apply(1) // delete head
	l.Apply(9) // delete tail
	got = l.Keys()
	if len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Fatalf("after deletes: %v", got)
	}
}

func TestTreeKeysSorted(t *testing.T) {
	for _, name := range []string{"AT", "BT", "RT"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env, mgr := newFullEnv(t)
			s := Build(name, env, mgr, testConfig)
			rng := rand.New(rand.NewSource(7))
			inserted := make(map[uint64]bool)
			for i := 0; i < 400; i++ {
				k := uint64(rng.Intn(10000))
				if !inserted[k] {
					s.Apply(k)
					inserted[k] = true
				}
			}
			var keys []uint64
			switch tr := s.(type) {
			case *AVL:
				keys = tr.Keys()
			case *BTree:
				keys = tr.Keys()
			case *RBTree:
				keys = tr.Keys()
			}
			if len(keys) != len(inserted) {
				t.Fatalf("got %d keys, want %d", len(keys), len(inserted))
			}
			if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
				t.Fatal("in-order walk not sorted")
			}
		})
	}
}

func TestBuildUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for unknown name")
		}
	}()
	env, _ := newFullEnv(t)
	Build("XX", env, nil, testConfig)
}

func TestNames(t *testing.T) {
	if len(Names()) != 7 {
		t.Fatalf("Names() = %v", Names())
	}
	env, mgr := newFullEnv(t)
	for _, n := range Names() {
		s := Build(n, env, mgr, testConfig)
		if s.Name() != n {
			t.Errorf("Build(%q).Name() = %q", n, s.Name())
		}
	}
}
