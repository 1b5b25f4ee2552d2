// Package cache models the three-level write-back cache hierarchy of the
// paper's baseline system (Table 2): L1D 32 KB 8-way 2 cycles, L2 256 KB
// 8-way 11 cycles, L3 2 MB 16-way 20 cycles, 64-byte blocks.
//
// Levels are looked up serially (miss latency accumulates level by level),
// the hierarchy is kept inclusive, and dirty L3 evictions write back into
// the memory controller's write-pending queue. clwb/clflushopt walk the
// hierarchy, clean (and for clflushopt evict) the block, and complete when
// the controller acknowledges acceptance into the WPQ — matching the
// paper's global-visibility definition (§5.1).
package cache

import (
	"math/bits"

	"specpersist/internal/mem"
	"specpersist/internal/memctl"
	"specpersist/internal/obs"
)

// LevelConfig sizes one cache level.
type LevelConfig struct {
	SizeBytes int
	Ways      int
	Latency   uint64 // access latency in cycles
}

// Config sizes the hierarchy.
type Config struct {
	L1, L2, L3 LevelConfig
}

// DefaultConfig returns the paper's Table 2 hierarchy.
func DefaultConfig() Config {
	return Config{
		L1: LevelConfig{SizeBytes: 32 << 10, Ways: 8, Latency: 2},
		L2: LevelConfig{SizeBytes: 256 << 10, Ways: 8, Latency: 11},
		L3: LevelConfig{SizeBytes: 2 << 20, Ways: 16, Latency: 20},
	}
}

// LevelStats counts per-level events.
type LevelStats struct {
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// Stats aggregates hierarchy events.
type Stats struct {
	L1, L2, L3 LevelStats
	Writebacks uint64 // lines written to the memory controller
	Flushes    uint64 // clwb/clflushopt operations processed
	FlushDirty uint64 // flushes that found a dirty block
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64
}

// A level's sets are built on first fill: a nil set holds no valid line,
// so construction costs O(sets) and a machine pays only for the sets its
// program touches. built lists the sets built so far, so a reset clears
// those and nothing else.
type level struct {
	cfg     LevelConfig
	sets    [][]line
	built   []uint32
	setMask uint64
	shift   uint // log2(set count): tag = block >> shift
	tick    uint64
	stats   *LevelStats
}

func newLevel(cfg LevelConfig, stats *LevelStats) *level {
	nlines := cfg.SizeBytes / mem.LineSize
	nsets := nlines / cfg.Ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	l := &level{cfg: cfg, sets: make([][]line, nsets), setMask: uint64(nsets - 1),
		shift: uint(bits.TrailingZeros(uint(nsets))), stats: stats}
	l.reset()
	return l
}

// reset invalidates every line and restarts the LRU clock. A built set
// stays built, emptied: an empty set behaves as a nil one.
func (l *level) reset() {
	for _, i := range l.built {
		clear(l.sets[i])
	}
	l.tick = 0
}

func (l *level) index(lineAddr uint64) (set uint64, tag uint64) {
	blk := lineAddr / mem.LineSize
	return blk & l.setMask, blk >> l.shift
}

// lookup finds the way holding lineAddr, or -1.
func (l *level) lookup(lineAddr uint64) int {
	set, tag := l.index(lineAddr)
	for w := range l.sets[set] {
		if l.sets[set][w].valid && l.sets[set][w].tag == tag {
			return w
		}
	}
	return -1
}

// touch updates LRU state for a hit.
func (l *level) touch(lineAddr uint64, way int) {
	set, _ := l.index(lineAddr)
	l.tick++
	l.sets[set][way].lru = l.tick
}

// insert places lineAddr into the level, returning the victim's address and
// dirtiness if a valid line was evicted.
func (l *level) insert(lineAddr uint64, dirty bool) (victimAddr uint64, victimDirty, evicted bool) {
	set, tag := l.index(lineAddr)
	ways := l.sets[set]
	if ways == nil {
		ways = make([]line, l.cfg.Ways)
		l.sets[set] = ways
		l.built = append(l.built, uint32(set))
	}
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			evicted = false
			goto place
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	evicted = true
	victimAddr = ((ways[victim].tag << l.shift) | set) * mem.LineSize
	victimDirty = ways[victim].dirty
	l.stats.Evictions++
	if victimDirty {
		l.stats.DirtyEvictions++
	}
place:
	l.tick++
	ways[victim] = line{tag: tag, valid: true, dirty: dirty, lru: l.tick}
	return victimAddr, victimDirty, evicted
}

// invalidate removes lineAddr, reporting whether it was present and dirty.
func (l *level) invalidate(lineAddr uint64) (present, dirty bool) {
	if w := l.lookup(lineAddr); w >= 0 {
		set, _ := l.index(lineAddr)
		dirty = l.sets[set][w].dirty
		l.sets[set][w] = line{}
		return true, dirty
	}
	return false, false
}

// setDirty marks lineAddr dirty (must be present).
func (l *level) setDirty(lineAddr uint64, d bool) {
	if w := l.lookup(lineAddr); w >= 0 {
		set, _ := l.index(lineAddr)
		l.sets[set][w].dirty = d
	}
}

// Hierarchy is the three-level cache in front of one memory controller.
type Hierarchy struct {
	l1, l2, l3 *level
	mc         memctl.Memory
	stats      Stats
}

// New builds the hierarchy over the given memory (a single controller or
// an interleaved multi-controller set).
func New(cfg Config, mc memctl.Memory) *Hierarchy {
	h := &Hierarchy{mc: mc}
	h.l1 = newLevel(cfg.L1, &h.stats.L1)
	h.l2 = newLevel(cfg.L2, &h.stats.L2)
	h.l3 = newLevel(cfg.L3, &h.stats.L3)
	h.Reset()
	return h
}

// Reset returns the hierarchy to the state New left it in: every line
// invalid and zero counters. The memory behind it is reset by its owner.
func (h *Hierarchy) Reset() {
	for _, l := range h.levels() {
		l.reset()
	}
	h.stats = Stats{}
}

// levels returns the hierarchy outward from the core.
func (h *Hierarchy) levels() [3]*level { return [3]*level{h.l1, h.l2, h.l3} }

// access walks the hierarchy for a load (write=false) or store allocate
// (write=true) issued at now; it returns the cycle the line is available in
// L1.
func (h *Hierarchy) access(addr uint64, now uint64, write bool) uint64 {
	lineAddr := mem.LineAddr(addr)
	lat := uint64(0)
	lv := h.levels()
	for i, l := range lv {
		lat += l.cfg.Latency
		if w := l.lookup(lineAddr); w >= 0 {
			l.stats.Hits++
			l.touch(lineAddr, w)
			// Fill upper levels; a line migrating up keeps its dirtiness
			// at the level where it was dirty.
			for j := i - 1; j >= 0; j-- {
				h.fill(j, lineAddr, false, now+lat)
			}
			if write {
				h.l1.setDirty(lineAddr, true)
			}
			return now + lat
		}
		l.stats.Misses++
	}
	// Miss to memory.
	done := h.mc.Read(lineAddr, now+lat)
	for j := 2; j >= 0; j-- {
		h.fill(j, lineAddr, false, now+lat)
	}
	if write {
		h.l1.setDirty(lineAddr, true)
	}
	return done
}

// fill inserts lineAddr into level idx, handling the eviction chain:
// dirty L1/L2 victims merge downward, dirty L3 victims write back to the
// controller, and L3 evictions back-invalidate upper levels (inclusion).
func (h *Hierarchy) fill(idx int, lineAddr uint64, dirty bool, now uint64) {
	lv := h.levels()
	victimAddr, victimDirty, evicted := lv[idx].insert(lineAddr, dirty)
	if !evicted {
		return
	}
	switch idx {
	case 0, 1:
		below := lv[idx+1]
		if w := below.lookup(victimAddr); w >= 0 {
			if victimDirty {
				below.setDirty(victimAddr, true)
			}
		} else if victimDirty {
			// Inclusion violated only transiently; push the dirty line in.
			h.fill(idx+1, victimAddr, true, now)
		}
	case 2:
		// Back-invalidate for inclusion; upper dirtiness folds into the
		// writeback.
		_, d1 := h.l1.invalidate(victimAddr)
		_, d2 := h.l2.invalidate(victimAddr)
		if victimDirty || d1 || d2 {
			h.stats.Writebacks++
			h.mc.EnqueueWrite(victimAddr, now)
		}
	}
}

// Load performs a data load at now, returning the data-ready cycle.
func (h *Hierarchy) Load(addr uint64, now uint64) uint64 {
	return h.access(addr, now, false)
}

// Store performs a write-allocate store at now, returning the cycle the
// store is globally visible (written into L1D).
func (h *Hierarchy) Store(addr uint64, now uint64) uint64 {
	return h.access(addr, now, true)
}

// Flush performs a clwb (evict=false) or clflushopt (evict=true) at now.
// It returns the cycle the operation is globally visible: for a dirty block
// that is when the controller acknowledges WPQ acceptance, for a clean or
// absent block it is just the walk latency.
func (h *Hierarchy) Flush(addr uint64, now uint64, evict bool) uint64 {
	lineAddr := mem.LineAddr(addr)
	h.stats.Flushes++
	lat := uint64(0)
	dirty := false
	lv := h.levels()
	for _, l := range lv {
		lat += l.cfg.Latency
		if w := l.lookup(lineAddr); w >= 0 {
			set, _ := l.index(lineAddr)
			if l.sets[set][w].dirty {
				dirty = true
				l.sets[set][w].dirty = false
			}
			if evict {
				l.sets[set][w] = line{}
			}
			// Keep walking: lower levels may hold a stale dirty copy only
			// if the upper one was clean; in an inclusive hierarchy the
			// line may exist at every level.
		}
	}
	if !dirty {
		return now + lat
	}
	h.stats.FlushDirty++
	h.stats.Writebacks++
	return h.mc.EnqueueWrite(lineAddr, now+lat)
}

// Dirty reports whether the line containing addr is dirty at any level
// (testing helper).
func (h *Hierarchy) Dirty(addr uint64) bool {
	lineAddr := mem.LineAddr(addr)
	for _, l := range h.levels() {
		if w := l.lookup(lineAddr); w >= 0 {
			set, _ := l.index(lineAddr)
			if l.sets[set][w].dirty {
				return true
			}
		}
	}
	return false
}

// Stats returns a copy of the hierarchy counters.
func (h *Hierarchy) Stats() Stats { return h.stats }

// Register publishes the hierarchy's counters into the registry under the
// "cache." key space.
func (h *Hierarchy) Register(r *obs.Registry) {
	levels := []struct {
		name string
		st   *LevelStats
	}{
		{"l1", &h.stats.L1}, {"l2", &h.stats.L2}, {"l3", &h.stats.L3},
	}
	for _, l := range levels {
		st := l.st
		r.RegisterFunc("cache."+l.name+".hits", func() uint64 { return st.Hits })
		r.RegisterFunc("cache."+l.name+".misses", func() uint64 { return st.Misses })
		r.RegisterFunc("cache."+l.name+".evictions", func() uint64 { return st.Evictions })
		r.RegisterFunc("cache."+l.name+".dirty_evictions", func() uint64 { return st.DirtyEvictions })
	}
	r.RegisterFunc("cache.writebacks", func() uint64 { return h.stats.Writebacks })
	r.RegisterFunc("cache.flushes", func() uint64 { return h.stats.Flushes })
	r.RegisterFunc("cache.flush_dirty", func() uint64 { return h.stats.FlushDirty })
}
