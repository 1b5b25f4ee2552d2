package mem

import (
	"math/rand"
	"testing"
)

// populated returns a space with pages fully written from DefaultBase up,
// like a populated image, and random word-aligned addresses inside it.
func populated(pages int) (*Space, []uint64) {
	s := NewSpace(DefaultBase)
	base := s.Alloc(pages*PageSize, PageSize)
	for a := base; a < s.Brk(); a += 8 {
		s.WriteU64(a, a)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = base + uint64(rng.Intn(pages*PageSize/8))*8
	}
	return s, addrs
}

var sink uint64

// BenchmarkReadU64 loads random words of a 1 MiB image.
func BenchmarkReadU64(b *testing.B) {
	s, addrs := populated(256)
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += s.ReadU64(addrs[i%len(addrs)])
	}
	sink = sum
}

// BenchmarkWriteU64 stores random words of a 1 MiB image.
func BenchmarkWriteU64(b *testing.B) {
	s, addrs := populated(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WriteU64(addrs[i%len(addrs)], uint64(i))
	}
}
