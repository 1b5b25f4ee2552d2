package sp

import (
	"math/rand"
	"testing"
)

// TestBloomNeverFalseNegative drives randomized add/reset/query sequences
// against an exact shadow set and asserts the filter's one hard guarantee:
// an address added since the last Clear is always reported as possibly
// present. False positives are allowed (and counted); false negatives are
// a correctness bug in the speculation hardware (a load would skip an SSB
// lookup that holds its forwarding data).
func TestBloomNeverFalseNegative(t *testing.T) {
	for _, size := range []int{64, 512} {
		size := size
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			b := NewBloom(size)
			exact := make(map[uint64]struct{})
			var wantQueries, wantHits uint64
			// A small address pool forces repeats (re-adds, queries of
			// both present and absent addresses, post-reset reuse).
			pool := make([]uint64, 256)
			for i := range pool {
				pool[i] = rng.Uint64() >> 16
			}
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // add
					a := pool[rng.Intn(len(pool))]
					b.Add(a)
					exact[a] = struct{}{}
				case op < 9: // query
					a := pool[rng.Intn(len(pool))]
					got := b.MayContain(a)
					wantQueries++
					if got {
						wantHits++
					}
					if _, present := exact[a]; present && !got {
						t.Fatalf("size=%d seed=%d step=%d: false negative for %#x",
							size, seed, step, a)
					}
				default: // reset (exiting speculation)
					b.Clear()
					clear(exact)
				}
			}
			// Accounting: Queries/Hits are lifetime counters — Clear
			// clears the bit array, never the statistics.
			if b.queries != wantQueries {
				t.Errorf("size=%d seed=%d: Queries()=%d, observed %d calls",
					size, seed, b.queries, wantQueries)
			}
			if b.Hits() != wantHits {
				t.Errorf("size=%d seed=%d: Hits()=%d, observed %d positive returns",
					size, seed, b.Hits(), wantHits)
			}
			if b.Hits() > b.queries {
				t.Errorf("size=%d seed=%d: Hits %d exceeds Queries %d",
					size, seed, b.Hits(), b.queries)
			}
		}
	}
}

// TestBloomResetClearsBits checks Clear actually empties the filter: a
// fresh query for an address added only before the Clear may still hit
// (false positive), but a full sweep of previously added addresses must
// show at least one definite absence for a sparsely loaded filter — and,
// more strongly, the bit array must be all zero immediately after Clear.
func TestBloomResetClearsBits(t *testing.T) {
	b := NewBloom(512)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		b.Add(rng.Uint64())
	}
	b.Clear()
	for i, w := range b.bits {
		if w != 0 {
			t.Fatalf("bit word %d nonzero after Clear: %#x", i, w)
		}
	}
}

// TestBLTMaxLifetimeHighWater pins the documented Clear semantics: Clear
// clears the live block set (Len, Conflicts) but Max is the lifetime
// high-water mark across speculation episodes and survives.
func TestBLTMaxLifetimeHighWater(t *testing.T) {
	b := NewBLT()
	for i := 0; i < 10; i++ {
		b.Record(uint64(i * 64))
	}
	if b.Len() != 10 || b.Max() != 10 {
		t.Fatalf("after 10 records: Len=%d Max=%d, want 10/10", b.Len(), b.Max())
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatalf("Len=%d after Clear, want 0", b.Len())
	}
	if b.Conflicts(0) {
		t.Fatal("Conflicts(0) true after Clear")
	}
	if b.Max() != 10 {
		t.Fatalf("Max=%d after Clear, want lifetime high-water 10", b.Max())
	}
	// A smaller second episode leaves the high-water; a bigger one grows it.
	for i := 0; i < 3; i++ {
		b.Record(uint64(i * 64))
	}
	if b.Max() != 10 {
		t.Fatalf("Max=%d after smaller episode, want 10", b.Max())
	}
	b.Clear()
	for i := 0; i < 12; i++ {
		b.Record(uint64(i * 64))
	}
	if b.Max() != 12 {
		t.Fatalf("Max=%d after larger episode, want 12", b.Max())
	}
}
