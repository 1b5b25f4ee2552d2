package cache

import (
	"math/rand"
	"testing"

	"specpersist/internal/memctl"
)

func BenchmarkHierarchyHit(b *testing.B) {
	mc := memctl.New(memctl.DefaultConfig())
	h := New(DefaultConfig(), mc)
	h.Load(0x1000, 0)
	b.ResetTimer()
	now := uint64(100)
	for i := 0; i < b.N; i++ {
		now = h.Load(0x1000, now)
	}
}

func BenchmarkHierarchyRandomAccess(b *testing.B) {
	mc := memctl.New(memctl.DefaultConfig())
	h := New(DefaultConfig(), mc)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<18)) * 64
	}
	b.ResetTimer()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if i%3 == 0 {
			now = h.Store(a, now)
		} else {
			now = h.Load(a, now)
		}
	}
}

func BenchmarkHierarchyFlush(b *testing.B) {
	mc := memctl.New(memctl.DefaultConfig())
	h := New(DefaultConfig(), mc)
	b.ResetTimer()
	now := uint64(0)
	for i := 0; i < b.N; i++ {
		a := uint64(i%512) * 64
		now = h.Store(a, now)
		now = h.Flush(a, now, false)
	}
}

// BenchmarkHierarchyNew measures building a Table 2 hierarchy, which every
// litmus machine run and every chaos fleet node pays once.
func BenchmarkHierarchyNew(b *testing.B) {
	mc := memctl.New(memctl.DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(DefaultConfig(), mc)
	}
}
