package cluster

import (
	"fmt"
	"testing"
)

func TestRingShape(t *testing.T) {
	for _, tc := range []struct{ nodes, vnodes, replicas int }{
		{1, 1, 1}, {3, 8, 2}, {5, 16, 3}, {4, 4, 4},
	} {
		r := newRing(tc.nodes, tc.vnodes, tc.replicas)
		if got := r.numRanges(); got != tc.nodes*tc.vnodes {
			t.Fatalf("%+v: %d ranges, want %d", tc, got, tc.nodes*tc.vnodes)
		}
		for rid := 0; rid < r.numRanges(); rid++ {
			owners := r.ownersOf(rid)
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
			if p := r.primary(rid); p != owners[0] {
				t.Fatalf("%+v range %d: initial primary %d, want first owner %d", tc, rid, p, owners[0])
			}
		}
	}
}

func TestRingRangeOfStable(t *testing.T) {
	a := newRing(3, 8, 2)
	b := newRing(3, 8, 2)
	counts := make([]int, 3)
	for key := uint64(0); key < 4096; key++ {
		ra, rb := a.rangeOf(key), b.rangeOf(key)
		if ra != rb {
			t.Fatalf("key %d maps to range %d and %d across identical rings", key, ra, rb)
		}
		counts[a.primary(ra)]++
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
	r := newRing(3, 4, 2)
	rid := 0
	owners := r.ownersOf(rid)
	r.setPrimary(rid, owners[1])
	if got := r.primary(rid); got != owners[1] {
		t.Fatalf("primary %d after setPrimary, want %d", got, owners[1])
	}
	var outsider int
	for n := 0; n < 3; n++ {
		if !r.isOwner(rid, n) {
			outsider = n
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("setPrimary to a non-owner did not panic")
		}
	}()
	r.setPrimary(rid, outsider)
}

func TestRingRangesOwnedBy(t *testing.T) {
	r := newRing(3, 8, 2)
	total := 0
	for n := 0; n < 3; n++ {
		rids := r.rangesOwnedBy(n)
		total += len(rids)
		for _, rid := range rids {
			if !r.isOwner(rid, n) {
				t.Fatalf("rangesOwnedBy(%d) returned non-owned range %d", n, rid)
			}
		}
		// The precomputed list is exactly an ascending scan of the owner sets.
		var want []int
		for rid := 0; rid < r.numRanges(); rid++ {
			if r.isOwner(rid, n) {
				want = append(want, rid)
			}
		}
		if fmt.Sprint(rids) != fmt.Sprint(want) {
			t.Fatalf("rangesOwnedBy(%d) = %v, want %v", n, rids, want)
		}
	}
	if want := r.numRanges() * 2; total != want {
		t.Fatalf("ownership slots %d, want ranges*R = %d", total, want)
	}
}
