package cluster

import (
	"fmt"
	"testing"
)

func TestRingShape(t *testing.T) {
	for _, tc := range []struct{ nodes, vnodes, replicas int }{
		{1, 1, 1}, {3, 8, 2}, {5, 16, 3}, {4, 4, 4},
	} {
		r := NewRing(tc.nodes, tc.vnodes, tc.replicas)
		if got := r.NumRanges(); got != tc.nodes*tc.vnodes {
			t.Fatalf("%+v: %d ranges, want %d", tc, got, tc.nodes*tc.vnodes)
		}
		for rid := 0; rid < r.NumRanges(); rid++ {
			owners := r.Owners(rid)
			if len(owners) != tc.replicas {
				t.Fatalf("%+v range %d: %d owners, want %d", tc, rid, len(owners), tc.replicas)
			}
			seen := map[int]bool{}
			for _, o := range owners {
				if o < 0 || o >= tc.nodes {
					t.Fatalf("%+v range %d: owner %d out of range", tc, rid, o)
				}
				if seen[o] {
					t.Fatalf("%+v range %d: duplicate owner %d", tc, rid, o)
				}
				seen[o] = true
			}
			if p := r.Primary(rid); p != owners[0] {
				t.Fatalf("%+v range %d: initial primary %d, want first owner %d", tc, rid, p, owners[0])
			}
		}
	}
}

func TestRingRangeOfStable(t *testing.T) {
	a := NewRing(3, 8, 2)
	b := NewRing(3, 8, 2)
	counts := make([]int, 3)
	for key := uint64(0); key < 4096; key++ {
		ra, rb := a.RangeOf(key), b.RangeOf(key)
		if ra != rb {
			t.Fatalf("key %d maps to range %d and %d across identical rings", key, ra, rb)
		}
		counts[a.Primary(ra)]++
	}
	// Virtual nodes keep primary load roughly uniform: no node should see
	// less than a tenth or more than three quarters of the keys.
	for n, c := range counts {
		if c < 4096/10 || c > 4096*3/4 {
			t.Fatalf("node %d primaries %d of 4096 keys; ring badly unbalanced: %v", n, c, counts)
		}
	}
}

func TestRingSetPrimary(t *testing.T) {
	r := NewRing(3, 4, 2)
	rid := 0
	owners := r.Owners(rid)
	r.SetPrimary(rid, owners[1])
	if got := r.Primary(rid); got != owners[1] {
		t.Fatalf("primary %d after SetPrimary, want %d", got, owners[1])
	}
	var outsider int
	for n := 0; n < 3; n++ {
		if !r.IsOwner(rid, n) {
			outsider = n
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetPrimary to a non-owner did not panic")
		}
	}()
	r.SetPrimary(rid, outsider)
}

func TestRingRangesOwnedBy(t *testing.T) {
	r := NewRing(3, 8, 2)
	total := 0
	for n := 0; n < 3; n++ {
		rids := r.RangesOwnedBy(n)
		total += len(rids)
		for _, rid := range rids {
			if !r.IsOwner(rid, n) {
				t.Fatalf("RangesOwnedBy(%d) returned non-owned range %d", n, rid)
			}
		}
		// The precomputed list is exactly an ascending scan of the owner sets.
		var want []int
		for rid := 0; rid < r.NumRanges(); rid++ {
			if r.IsOwner(rid, n) {
				want = append(want, rid)
			}
		}
		if fmt.Sprint(rids) != fmt.Sprint(want) {
			t.Fatalf("RangesOwnedBy(%d) = %v, want %v", n, rids, want)
		}
	}
	if want := r.NumRanges() * 2; total != want {
		t.Fatalf("ownership slots %d, want ranges*R = %d", total, want)
	}
}
