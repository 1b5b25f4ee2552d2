package pstruct

import (
	"math/rand"
	"testing"
)

func TestGraphSelfLoop(t *testing.T) {
	env, mgr := newFullEnv(t)
	g := NewGraph(env, mgr, 4)
	g.Apply(2 + 2*4) // edge (2, 2)
	if !g.HasEdge(2, 2) {
		t.Fatal("self-loop not inserted")
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	g.Apply(2 + 2*4)
	if g.HasEdge(2, 2) {
		t.Fatal("self-loop not deleted")
	}
}

func TestGraphDenseVertex(t *testing.T) {
	// Every edge out of vertex 0: long adjacency list, deletes from the
	// middle.
	env, mgr := newFullEnv(t)
	g := NewGraph(env, mgr, 16)
	for v := uint64(0); v < 16; v++ {
		g.Apply(0 + v*16)
	}
	if g.Size() != 16 {
		t.Fatalf("edges = %d", g.Size())
	}
	for v := uint64(0); v < 16; v += 2 {
		g.Apply(0 + v*16)
	}
	if g.Size() != 8 {
		t.Fatalf("edges after deletes = %d", g.Size())
	}
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestHashMapProbeWrapAround(t *testing.T) {
	env, mgr := newFullEnv(t)
	h := NewHashMap(env, mgr, 8)
	// Insert enough keys that probe sequences wrap the table end; the
	// resize threshold keeps the table sparse, so insert just below it.
	keys := []uint64{}
	for k := uint64(0); len(keys) < 5; k++ {
		h.Apply(k)
		keys = append(keys, k)
	}
	for _, k := range keys {
		if !h.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
	if err := h.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyTogglesRepeatedly(t *testing.T) {
	// Applying the same key 2k times returns every structure to its
	// starting state.
	for _, name := range []string{"GH", "HM", "LL", "AT", "BT", "RT"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env, mgr := newFullEnv(t)
			s := Build(name, env, mgr, testConfig)
			before := s.Size()
			for i := 0; i < 10; i++ {
				s.Apply(7)
			}
			if s.Size() != before {
				t.Fatalf("size %d after even toggles, want %d", s.Size(), before)
			}
			s.Apply(7)
			if s.Size() != before+1 {
				t.Fatalf("size %d after odd toggles, want %d", s.Size(), before+1)
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestStringSwapSelfIndexAvoided(t *testing.T) {
	env, mgr := newFullEnv(t)
	s := NewStringSwap(env, mgr, testConfig.Strings)
	n := uint64(testConfig.Strings)
	// key deriving i == j must swap with the next slot instead.
	key := uint64(3) + 3*n // i = 3, j = 3 -> j becomes 4
	s.Apply(key)
	if s.IdentityAt(3) != 4 || s.IdentityAt(4) != 3 {
		t.Fatalf("self-swap handling wrong: slot3=%d slot4=%d", s.IdentityAt(3), s.IdentityAt(4))
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandomMixAllStructures(t *testing.T) {
	if testing.Short() {
		t.Skip("long mix")
	}
	for _, name := range []string{"AT", "BT", "RT"} {
		name := name
		t.Run(name, func(t *testing.T) {
			env, mgr := newFullEnv(t)
			s := Build(name, env, mgr, testConfig)
			rng := rand.New(rand.NewSource(77))
			oracle := make(map[uint64]bool)
			for i := 0; i < 20000; i++ {
				k := uint64(rng.Intn(2000))
				s.Apply(k)
				oracle[k] = !oracle[k]
			}
			if err := s.Check(); err != nil {
				t.Fatal(err)
			}
			live := 0
			for _, v := range oracle {
				if v {
					live++
				}
			}
			if s.Size() != live {
				t.Fatalf("size %d, oracle %d", s.Size(), live)
			}
		})
	}
}

func TestBTreeCheckRejectsCycle(t *testing.T) {
	// A crash can leave a node linking back to itself through its first
	// child; Check must report it, not recurse until the stack overflows.
	env, mgr := newFullEnv(t)
	bt := NewBTree(env, mgr)
	for k := uint64(0); k < 8; k++ {
		bt.Apply(k)
	}
	root := env.M.ReadU64(bt.hdr)
	env.M.WriteU64(root+btKid0, root)
	if err := bt.Check(); err == nil {
		t.Fatal("Check accepted a cyclic tree")
	}
}

// HasEdge reports whether the edge (u, v) is present.
func (g *Graph) HasEdge(u, v uint64) bool {
	_, edge, _ := g.search(u%g.nv, v%g.nv)
	return edge != 0
}
