package pmem

import (
	"math/rand"
	"testing"

	"specpersist/internal/mem"
)

// trialLines is the size of a crash trial's image: about six pages.
const trialLines = 6 * mem.PageSize / mem.LineSize

// populatedModel returns a model whose lines are all written and durable.
func populatedModel(lines int) (*Model, uint64) {
	m := New()
	base := m.AllocLines(lines)
	for i := 0; i < lines; i++ {
		a := base + uint64(i*mem.LineSize)
		m.WriteU64(a, uint64(i))
		m.Clwb(a)
	}
	m.Pcommit()
	return m, base
}

// flushGroup stores to eight lines of group g, clwbs them and pcommits:
// the persist pattern of one logged update.
func flushGroup(m *Model, base uint64, g int) {
	lines := base + uint64(g%(trialLines/8))*8*mem.LineSize
	for j := uint64(0); j < 8; j++ {
		m.WriteU64(lines+j*mem.LineSize+8, uint64(g))
		m.Clwb(lines + j*mem.LineSize)
	}
	m.Pcommit()
}

func BenchmarkFlushGroup(b *testing.B) {
	m, base := populatedModel(trialLines)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flushGroup(m, base, i)
	}
}

// TestFlushGroupDoesNotAllocate pins the flush group at zero allocations
// once the WPQ has grown to size.
func TestFlushGroupDoesNotAllocate(t *testing.T) {
	m, base := populatedModel(trialLines)
	g := 0
	if n := testing.AllocsPerRun(100, func() { flushGroup(m, base, g); g++ }); n != 0 {
		t.Errorf("a clwb x8 + pcommit group allocates %v times", n)
	}
}

// BenchmarkClone forks a populated trial-sized model with pending state,
// as the fault engine forks every trial from a shared prefix.
func BenchmarkClone(b *testing.B) {
	m, base := populatedModel(trialLines)
	for i := 0; i < 16; i++ {
		m.WriteU64(base+uint64(i*mem.LineSize), 1)
		if i%2 == 0 {
			m.Clwb(base + uint64(i*mem.LineSize))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkModel = m.Clone()
	}
}

var sinkModel *Model

// BenchmarkCrash dirties and queues lines of a populated trial-sized
// model, then crashes it with random torn drains and evictions.
func BenchmarkCrash(b *testing.B) {
	m, base := populatedModel(trialLines)
	rng := rand.New(rand.NewSource(1))
	opts := CrashOptions{EvictFrac: 0.5, DrainFrac: 0.5, TornFrac: 0.5, Rand: rng}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			a := base + uint64(rng.Intn(trialLines)*mem.LineSize)
			m.WriteU64(a, uint64(i))
			if j%2 == 0 {
				m.Clwb(a)
			}
		}
		m.Crash(opts)
	}
}
