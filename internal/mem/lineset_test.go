package mem

import (
	"math"
	"math/rand"
	"testing"
)

// TestLineSetMatchesMap drives random Add/Has/Clear sequences against a
// map of line numbers, over address ranges from one page to the 64 GiB
// ceiling and through a generation wrap.
func TestLineSetMatchesMap(t *testing.T) {
	for _, span := range []uint64{PageSize, 1 << 20, maxAddr} {
		rng := rand.New(rand.NewSource(int64(span)))
		var s LineSet
		ref := map[uint64]bool{}
		for step := 0; step < 20000; step++ {
			addr := rng.Uint64() % span
			switch r := rng.Intn(100); {
			case r < 45:
				if got, want := s.Add(addr), !ref[addr/LineSize]; got != want {
					t.Fatalf("span %#x step %d: Add(%#x) = %v, want %v", span, step, addr, got, want)
				}
				ref[addr/LineSize] = true
			case r < 98:
				if got := s.Has(addr); got != ref[addr/LineSize] {
					t.Fatalf("span %#x step %d: Has(%#x) = %v, want %v", span, step, addr, got, !got)
				}
			default:
				s.Clear()
				clear(ref)
				if step%7 == 0 {
					s.gen = math.MaxUint32 // the next Clear wraps
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("span %#x step %d: Len %d, want %d", span, step, s.Len(), len(ref))
			}
		}
	}
}

// TestLineSetClearKeepsTable: a cleared set reads empty and refills
// without allocating.
func TestLineSetClearKeepsTable(t *testing.T) {
	var s LineSet
	for i := uint64(0); i < 100; i++ {
		s.Add(i * LineSize)
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.Clear()
		for i := uint64(0); i < 100; i++ {
			if s.Has(i * LineSize) {
				t.Fatal("line survived Clear")
			}
			s.Add(i*LineSize + 1)
		}
	})
	if allocs != 0 {
		t.Fatalf("refilling a cleared set allocated %v times", allocs)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d, want 100", s.Len())
	}
}
