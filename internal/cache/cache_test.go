package cache

import (
	"testing"

	"specpersist/internal/mem"
	"specpersist/internal/memctl"
)

func smallCfg() Config {
	// Tiny caches so evictions are easy to force: L1 4 sets x 2 ways,
	// L2 8 sets x 2, L3 16 sets x 2.
	return Config{
		L1: LevelConfig{SizeBytes: 512, Ways: 2, Latency: 2},
		L2: LevelConfig{SizeBytes: 1024, Ways: 2, Latency: 11},
		L3: LevelConfig{SizeBytes: 2048, Ways: 2, Latency: 20},
	}
}

func newH() (*Hierarchy, *memctl.Controller) {
	mc := memctl.New(memctl.Config{Banks: 2, ReadLat: 100, WriteLat: 300, WPQCap: 16, AckLat: 5})
	return New(smallCfg(), mc), mc
}

func TestColdMissLatency(t *testing.T) {
	h, _ := newH()
	// Cold miss: 2 + 11 + 20 = 33 cycle walk, then 100 read + 5 ack.
	if done := h.Load(0x1000, 0); done != 33+100+5 {
		t.Errorf("cold load done = %d, want 138", done)
	}
	// Now hot: L1 hit in 2 cycles.
	if done := h.Load(0x1000, 200); done != 202 {
		t.Errorf("hot load done = %d, want 202", done)
	}
}

func TestStoreMakesLineDirty(t *testing.T) {
	h, _ := newH()
	h.Store(0x2000, 0)
	if !h.Dirty(0x2000) {
		t.Error("store did not dirty the line")
	}
	if !h.Present(0x2000) {
		t.Error("write-allocate did not cache the line")
	}
}

func TestFlushCleanLineIsCheap(t *testing.T) {
	h, _ := newH()
	h.Load(0x3000, 0)
	done := h.Flush(0x3000, 200, false)
	if done != 233 {
		t.Errorf("clean flush done = %d, want 233 (walk only)", done)
	}
	st := h.Stats()
	if st.FlushDirty != 0 || st.Writebacks != 0 {
		t.Errorf("clean flush wrote back: %+v", st)
	}
}

func TestFlushDirtyWritesBack(t *testing.T) {
	h, mc := newH()
	h.Store(0x3000, 0)
	done := h.Flush(0x3000, 100, false)
	// Walk 33 cycles, WPQ acceptance ack +5.
	if done != 100+33+5 {
		t.Errorf("dirty flush done = %d, want 138", done)
	}
	if h.Dirty(0x3000) {
		t.Error("clwb left the line dirty")
	}
	if !h.Present(0x3000) {
		t.Error("clwb evicted the line")
	}
	if mc.Stats().Writes != 1 {
		t.Error("writeback did not reach the controller")
	}
	// A pcommit after the flush must cover the drain.
	if p := mc.Pcommit(140); p < 138+300 {
		t.Errorf("pcommit done = %d, want >= 438", p)
	}
}

func TestClflushoptEvicts(t *testing.T) {
	h, _ := newH()
	h.Store(0x4000, 0)
	h.Flush(0x4000, 100, true)
	if h.Present(0x4000) {
		t.Error("clflushopt left the line cached")
	}
}

func TestSecondFlushIsNoop(t *testing.T) {
	h, mc := newH()
	h.Store(0x5000, 0)
	h.Flush(0x5000, 100, false)
	h.Flush(0x5000, 200, false)
	if mc.Stats().Writes != 1 {
		t.Errorf("writes = %d, want 1 (second clwb is a no-op)", mc.Stats().Writes)
	}
}

func TestRedirtyAfterFlushWritesBackAgain(t *testing.T) {
	h, mc := newH()
	h.Store(0x5000, 0)
	h.Flush(0x5000, 100, false)
	h.Store(0x5000, 200)
	h.Flush(0x5000, 300, false)
	if mc.Stats().Writes != 2 {
		t.Errorf("writes = %d, want 2", mc.Stats().Writes)
	}
}

func TestDirtyEvictionReachesController(t *testing.T) {
	h, mc := newH()
	// L1 set 0 has 2 ways; L2 set 0 has 2 ways; L3 set 0 has 2 ways.
	// Lines mapping to the same L3 set are 2048 bytes apart.
	h.Store(0x0, 0)
	for i := 1; i <= 4; i++ {
		h.Load(uint64(i*2048), uint64(i*1000))
	}
	if h.Present(0x0) {
		t.Skip("line not evicted by this access pattern")
	}
	if mc.Stats().Writes == 0 {
		t.Error("dirty eviction never wrote back to the controller")
	}
}

func TestInclusionBackInvalidate(t *testing.T) {
	h, _ := newH()
	h.Load(0x0, 0)
	// Evict from L3 by loading conflicting lines; 0x0 must leave all levels.
	for i := 1; i <= 4; i++ {
		h.Load(uint64(i*2048), uint64(i*1000))
	}
	for _, l := range h.levels() {
		if l.lookup(0) >= 0 {
			t.Fatal("inclusion violated: line in upper level after L3 eviction")
		}
	}
}

func TestHitMissCounters(t *testing.T) {
	h, _ := newH()
	h.Load(0x100, 0)
	h.Load(0x100, 100)
	st := h.Stats()
	if st.L1.Misses != 1 || st.L1.Hits != 1 {
		t.Errorf("L1 stats = %+v", st.L1)
	}
	if st.L2.Misses != 1 || st.L3.Misses != 1 {
		t.Errorf("lower-level stats: L2=%+v L3=%+v", st.L2, st.L3)
	}
}

func TestL2HitLatency(t *testing.T) {
	h, _ := newH()
	h.Load(0x0, 0) // fill everywhere
	// Evict from L1 only: lines 256 and 768 share line 0's L1 set (4
	// sets, so every 256 bytes) but not its L2 set (8 sets, every 512
	// bytes; both land in set 4).
	h.Load(256, 1000)
	h.Load(768, 2000)
	// 0x0 left L1 but not L2, so a reload is an L2 hit: 2 + 11 = 13.
	if h.l1.lookup(0) >= 0 {
		t.Fatal("line still in L1 under this pattern")
	}
	if h.l2.lookup(0) < 0 {
		t.Fatal("line not in L2")
	}
	if done := h.Load(0x0, 5000); done != 5013 {
		t.Errorf("L2 hit done = %d, want 5013", done)
	}
}

func TestDefaultConfigGeometry(t *testing.T) {
	cfg := DefaultConfig()
	mc := memctl.New(memctl.DefaultConfig())
	h := New(cfg, mc)
	// 32KB/8w/64B = 64 sets; 256KB/8w = 512 sets; 2MB/16w = 2048 sets.
	if len(h.l1.sets) != 64 || len(h.l2.sets) != 512 || len(h.l3.sets) != 2048 {
		t.Errorf("set counts = %d/%d/%d", len(h.l1.sets), len(h.l2.sets), len(h.l3.sets))
	}
}

func TestBadGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on non-power-of-two sets")
		}
	}()
	newLevel(LevelConfig{SizeBytes: 192, Ways: 1, Latency: 1}, &LevelStats{})
}

// Present reports whether the line containing addr is cached at any level
// (testing helper).
func (h *Hierarchy) Present(addr uint64) bool {
	lineAddr := mem.LineAddr(addr)
	for _, l := range h.levels() {
		if l.lookup(lineAddr) >= 0 {
			return true
		}
	}
	return false
}
