package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randKeys draws n distinct candidates from a tiny (cycle, kind, index)
// space, so equal-cycle ties across kinds and indices are the common case.
func randKeys(rng *rand.Rand, n int) []Key {
	seen := map[Key]bool{}
	var out []Key
	for len(out) < n {
		k := Key{T: uint64(rng.Intn(4)), Kind: rng.Intn(3), Idx: rng.Intn(4) - 1}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func sorted(keys []Key) []Key {
	s := slices.Clone(keys)
	slices.SortFunc(s, func(a, b Key) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		}
		return 0
	})
	return s
}

// TestLessIsLexicographic: the packed tie-break orders (Kind, Idx) as a
// field-by-field comparison does, at the edges of the allowed range.
func TestLessIsLexicographic(t *testing.T) {
	vals := []int{math.MinInt32 + 1, -1, 0, 1, math.MaxInt32 - 1, math.MaxInt32}
	for _, ka := range vals {
		for _, ia := range vals {
			for _, kb := range vals {
				for _, ib := range vals {
					a, b := Key{T: 7, Kind: ka, Idx: ia}, Key{T: 7, Kind: kb, Idx: ib}
					if want := ka < kb || ka == kb && ia < ib; a.Less(b) != want {
						t.Fatalf("%v.Less(%v) = %v, want %v", a, b, !want, want)
					}
				}
			}
		}
	}
}

// TestPickMatchesSort: Best and Next are the first two keys of a full
// sort, for any insertion order.
func TestPickMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var p Pick
	for trial := 0; trial < 20000; trial++ {
		keys := randKeys(rng, 1+rng.Intn(12))
		p.Reset()
		if p.Ok() {
			t.Fatal("Ok after Reset")
		}
		for _, k := range keys {
			p.Add(k)
		}
		want := sorted(keys)
		if !p.Ok() || p.Best() != want[0] {
			t.Fatalf("%v: best %v, sort says %v", keys, p.Best(), want[0])
		}
		if len(want) == 1 {
			if p.Next() != never {
				t.Fatalf("%v: sole candidate has runner-up %v", keys, p.Next())
			}
		} else if p.Next() != want[1] {
			t.Fatalf("%v: next %v, sort says %v", keys, p.Next(), want[1])
		}
	}
}

// TestBatchNeverPassesAnEarlierCandidate: while the winner's key at its
// advanced clock still orders before Next, a full sort of the candidate
// set (with the winner moved to that clock) picks the winner first, so
// batch-stepping it is the same as re-scanning after every step.
func TestBatchNeverPassesAnEarlierCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var p Pick
	for trial := 0; trial < 20000; trial++ {
		keys := randKeys(rng, 1+rng.Intn(12))
		p.Reset()
		for _, k := range keys {
			p.Add(k)
		}
		w, next := p.Best(), p.Next()
		others := sorted(keys)[1:]
		for now := w.T; ; now += uint64(rng.Intn(2)) {
			k := Key{T: now, Kind: w.Kind, Idx: w.Idx}
			if !k.Less(next) {
				break
			}
			if first := sorted(append(slices.Clone(others), k))[0]; first != k {
				t.Fatalf("%v: winner %v stepped to %d past %v", keys, w, now, first)
			}
			if len(others) == 0 && now > w.T+8 {
				break // sole candidate: it would run to completion
			}
		}
	}
}

// TestBatchedScheduleMatchesUnbatched replays random per-source step
// lengths (zero-length steps included) two ways — one step per full sort,
// and one Pick scan per batch — and requires the same step sequence.
func TestBatchedScheduleMatchesUnbatched(t *testing.T) {
	type source struct {
		key   Key
		steps []uint64 // clock advance of each step; the source drains after the last
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		seed := rng.Int63()
		sources := func() []source {
			r := rand.New(rand.NewSource(seed))
			s := make([]source, 1+r.Intn(5))
			for i := range s {
				s[i].key = Key{T: uint64(r.Intn(4)), Kind: r.Intn(2), Idx: i}
				for j := r.Intn(6); j > 0; j-- {
					s[i].steps = append(s[i].steps, uint64(r.Intn(3)))
				}
			}
			return s
		}
		// step logs source i's step and reports whether it is still live.
		step := func(s []source, i int, log *[]Key) bool {
			*log = append(*log, s[i].key)
			if len(s[i].steps) == 0 {
				return false
			}
			s[i].key.T += s[i].steps[0]
			s[i].steps = s[i].steps[1:]
			return true
		}

		var want []Key
		s := sources()
		for drained := make([]bool, len(s)); ; {
			var keys []Key
			for i := range s {
				if !drained[i] {
					keys = append(keys, s[i].key)
				}
			}
			if len(keys) == 0 {
				break
			}
			i := sorted(keys)[0].Idx
			drained[i] = !step(s, i, &want)
		}

		var got []Key
		var p Pick
		s = sources()
		for drained := make([]bool, len(s)); ; {
			p.Reset()
			for i := range s {
				if !drained[i] {
					p.Add(s[i].key)
				}
			}
			if !p.Ok() {
				break
			}
			i, next := p.Best().Idx, p.Next()
			for !drained[i] {
				drained[i] = !step(s, i, &got)
				if !s[i].key.Less(next) {
					break
				}
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: batched steps %v, unbatched %v", trial, got, want)
		}
	}
}

// TestUntilIsTheHorizon: a key of k's kind and index at cycle t orders
// before next exactly while t < k.Until(next), including at the top of the
// cycle range, where the horizon saturates.
func TestUntilIsTheHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 5000; trial++ {
		ks := randKeys(rng, 2)
		k, next := ks[0], ks[1]
		h := k.Until(next)
		for c := uint64(0); c < 6; c++ {
			if got := (Key{T: c, Kind: k.Kind, Idx: k.Idx}).Less(next); got != (c < h) {
				t.Fatalf("k=%v next=%v: Less at %d = %v, Until %d", k, next, c, got, h)
			}
		}
	}
	if h := (Key{Idx: 0}).Until(never); h != math.MaxUint64 {
		t.Errorf("Until(never) = %d, want the largest cycle", h)
	}
	end := Key{T: math.MaxUint64, Kind: 1, Idx: 1}
	if h := (Key{Kind: 1, Idx: 2}).Until(end); h != math.MaxUint64 {
		t.Errorf("Until past a last-cycle event = %d", h)
	}
}
