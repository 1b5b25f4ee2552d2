package cache

import (
	"math/rand"
	"runtime"
	"testing"

	"specpersist/internal/mem"
	"specpersist/internal/memctl"
)

// buildAllSets materializes every set of every level, so the hierarchy
// behaves as one whose sets were all allocated at construction.
func (h *Hierarchy) buildAllSets() {
	for _, l := range h.levels() {
		for i := range l.sets {
			if l.sets[i] == nil {
				l.sets[i] = make([]line, l.cfg.Ways)
			}
		}
	}
}

// TestLazySetsMatchEager runs the same random Load/Store/Flush stream on a
// hierarchy whose sets are built on first fill and on one whose sets are
// all built up front, and requires every returned cycle, every counter and
// the functional state of every touched line to agree. The tiny configs
// force evictions at every level and L3 back-invalidations; the default
// config runs the paper's Table 2 geometry.
func TestLazySetsMatchEager(t *testing.T) {
	tiny := Config{
		L1: LevelConfig{SizeBytes: 128, Ways: 1, Latency: 2},
		L2: LevelConfig{SizeBytes: 256, Ways: 2, Latency: 11},
		L3: LevelConfig{SizeBytes: 512, Ways: 4, Latency: 20},
	}
	cases := []struct {
		name   string
		cfg    Config
		stride uint64 // distance between conflicting lines
		lines  int    // working-set size in lines
	}{
		{"tiny", tiny, 2 * mem.LineSize, 24},
		{"small", smallCfg(), 16 * mem.LineSize, 48},
		{"default", DefaultConfig(), 2048 * mem.LineSize, 64},
	}
	mcCfg := memctl.Config{Banks: 2, ReadLat: 100, WriteLat: 300, WPQCap: 4, AckLat: 5}
	for _, c := range cases {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			lazyMC, eagerMC := memctl.New(mcCfg), memctl.New(mcCfg)
			lazy, eager := New(c.cfg, lazyMC), New(c.cfg, eagerMC)
			eager.buildAllSets()
			// Half the working set conflicts in one L3 set; the rest is
			// scattered, so some sets fill late and some never do.
			addrs := make([]uint64, c.lines)
			for i := range addrs {
				if i%2 == 0 {
					addrs[i] = 0x40000 + uint64(i)*c.stride
				} else {
					addrs[i] = uint64(rng.Intn(1<<20))*mem.LineSize + uint64(rng.Intn(mem.LineSize))
				}
			}
			now := uint64(0)
			for step := 0; step < 4000; step++ {
				a := addrs[rng.Intn(len(addrs))]
				now += uint64(rng.Intn(40))
				var got, want uint64
				op := rng.Intn(5)
				switch op {
				case 0, 1:
					got, want = lazy.Load(a, now), eager.Load(a, now)
				case 2:
					got, want = lazy.Store(a, now), eager.Store(a, now)
				case 3:
					got, want = lazy.Flush(a, now, false), eager.Flush(a, now, false)
				case 4:
					got, want = lazy.Flush(a, now, true), eager.Flush(a, now, true)
				}
				if got != want {
					t.Fatalf("%s seed %d step %d op %d addr %#x: lazy done %d, eager %d",
						c.name, seed, step, op, a, got, want)
				}
				if lazy.Stats() != eager.Stats() {
					t.Fatalf("%s seed %d step %d: stats differ\nlazy  %+v\neager %+v",
						c.name, seed, step, lazy.Stats(), eager.Stats())
				}
				if lazyMC.Stats() != eagerMC.Stats() {
					t.Fatalf("%s seed %d step %d: memctl stats differ\nlazy  %+v\neager %+v",
						c.name, seed, step, lazyMC.Stats(), eagerMC.Stats())
				}
			}
			for _, a := range addrs {
				if lazy.Present(a) != eager.Present(a) || lazy.Dirty(a) != eager.Dirty(a) {
					t.Fatalf("%s seed %d addr %#x: lazy present/dirty %v/%v, eager %v/%v", c.name, seed, a,
						lazy.Present(a), lazy.Dirty(a), eager.Present(a), eager.Dirty(a))
				}
			}
			st := lazy.Stats()
			if st.L3.Evictions == 0 || st.L1.Evictions == 0 || st.Flushes == 0 {
				t.Fatalf("%s seed %d: stream never evicted or flushed: %+v", c.name, seed, st)
			}
		}
	}
}

// TestNewAllocatesOnlyTheSetIndex guards the construction cost: a Table 2
// hierarchy must not allocate its lines up front (the eager build made
// 2,631 allocations and 962 KB).
func TestNewAllocatesOnlyTheSetIndex(t *testing.T) {
	mc := memctl.New(memctl.DefaultConfig())
	if n := testing.AllocsPerRun(20, func() { New(DefaultConfig(), mc) }); n > 16 {
		t.Errorf("New made %.0f allocations, want <= 16", n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		New(DefaultConfig(), mc)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 96<<10 {
		t.Errorf("New allocated %d bytes, want <= %d", per, 96<<10)
	}
}
