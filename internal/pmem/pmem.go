// Package pmem models the functional persistence behaviour of a system with
// non-volatile main memory behind volatile caches and a volatile memory
// controller write-pending queue (WPQ).
//
// The model tracks three copies of state at 64-byte cache-line granularity:
//
//   - the volatile view: what the program observes through loads (caches +
//     store buffers), updated by every store;
//   - the WPQ: line snapshots written back by clwb/clflushopt (or by a
//     simulated spontaneous eviction) that have reached the memory
//     controller but are not yet durable — the paper assumes the controller
//     is NOT in the persistence domain, so pcommit is required (§2.2 fn 1);
//   - the durable image: what survives a crash.
//
// Crash injection discards the volatile view and the WPQ (optionally
// persisting a random subset first, modeling spontaneous evictions and
// partial WPQ drain) and resets the program-visible state to the durable
// image, exactly as power loss would.
package pmem

import (
	"fmt"
	"math/rand"
	"sort"

	"specpersist/internal/mem"
	"specpersist/internal/obs"
)

// LineState describes the persistence status of one cache line.
type LineState uint8

const (
	// Clean: volatile content matches the durable image.
	Clean LineState = iota
	// Dirty: written since the last writeback; lost on crash.
	Dirty
	// InWPQ: written back to the controller but not yet durable; lost on
	// crash unless the WPQ happened to drain.
	InWPQ
)

// String returns a short name for the state.
func (s LineState) String() string {
	switch s {
	case Clean:
		return "clean"
	case Dirty:
		return "dirty"
	case InWPQ:
		return "in-wpq"
	default:
		return "invalid"
	}
}

// Stats counts functional persistence events.
type Stats struct {
	Stores     uint64 // store operations (not bytes)
	Loads      uint64
	Clwbs      uint64 // clwb/clflushopt issued (including no-op on clean lines)
	Flushed    uint64 // lines actually moved to the WPQ
	Pcommits   uint64
	Sfences    uint64
	Persisted  uint64 // lines made durable by pcommit
	Crashes    uint64
	Recoveries uint64
	TornLines  uint64 // lines that landed partially durable at a crash
}

// Model is the functional persistence model. It is not safe for concurrent
// use; the paper (and this reproduction) targets single-threaded workloads.
type Model struct {
	volatile *mem.Space
	durable  *mem.Space
	dirty    map[uint64]struct{} // line base -> dirty in cache
	wpq      map[uint64][]byte   // line base -> snapshot pending in controller
	stats    Stats
}

// New returns a fresh model whose allocator starts at mem.DefaultBase.
func New() *Model {
	return &Model{
		volatile: mem.NewSpace(mem.DefaultBase),
		durable:  mem.NewSpace(mem.DefaultBase),
		dirty:    make(map[uint64]struct{}),
		wpq:      make(map[uint64][]byte),
	}
}

// Alloc reserves size bytes with the given alignment.
func (m *Model) Alloc(size, align int) uint64 { return m.volatile.Alloc(size, align) }

// AllocLines reserves n cache lines, line-aligned.
func (m *Model) AllocLines(n int) uint64 { return m.volatile.AllocLines(n) }

// Read copies bytes from the volatile (program-visible) view.
func (m *Model) Read(addr uint64, dst []byte) {
	m.stats.Loads++
	m.volatile.Read(addr, dst)
}

// Write stores bytes to the volatile view and marks the touched lines dirty.
func (m *Model) Write(addr uint64, src []byte) {
	m.stats.Stores++
	m.volatile.Write(addr, src)
	first := mem.LineAddr(addr)
	for i := 0; i < mem.LinesSpanned(addr, len(src)); i++ {
		line := first + uint64(i*mem.LineSize)
		m.dirty[line] = struct{}{}
		// A newer store to a line whose older snapshot is pending in the
		// WPQ does not disturb the snapshot: the WPQ holds the content at
		// writeback time.
	}
}

// ReadU64 reads a little-endian uint64.
func (m *Model) ReadU64(addr uint64) uint64 {
	m.stats.Loads++
	return m.volatile.ReadU64(addr)
}

// WriteU64 writes a little-endian uint64.
func (m *Model) WriteU64(addr uint64, v uint64) {
	m.stats.Stores++
	m.volatile.WriteU64(addr, v)
	m.dirty[mem.LineAddr(addr)] = struct{}{}
}

// Clwb writes the line containing addr back to the controller WPQ if it is
// dirty. The line remains cached (functionally: remains readable, which it
// always is in this model). Clean lines are a no-op, as in hardware.
func (m *Model) Clwb(addr uint64) {
	m.stats.Clwbs++
	line := mem.LineAddr(addr)
	if _, ok := m.dirty[line]; !ok {
		return
	}
	buf := make([]byte, mem.LineSize)
	m.volatile.Read(line, buf)
	m.wpq[line] = buf
	delete(m.dirty, line)
	m.stats.Flushed++
}

// Clflushopt has the same persistence effect as Clwb in this functional
// model (eviction only affects timing, which the cache model handles).
func (m *Model) Clflushopt(addr uint64) { m.Clwb(addr) }

// Pcommit drains the WPQ: every pending line snapshot becomes durable.
func (m *Model) Pcommit() {
	m.stats.Pcommits++
	for line, buf := range m.wpq {
		m.durable.Write(line, buf)
		m.stats.Persisted++
		delete(m.wpq, line)
	}
}

// Sfence is an ordering point. The functional model executes sequentially,
// so it only counts the event; ordering is enforced by construction.
func (m *Model) Sfence() { m.stats.Sfences++ }

// LineState reports the persistence status of the line containing addr.
func (m *Model) LineState(addr uint64) LineState {
	line := mem.LineAddr(addr)
	if _, ok := m.dirty[line]; ok {
		return Dirty
	}
	if _, ok := m.wpq[line]; ok {
		return InWPQ
	}
	return Clean
}

// DurableEquals reports whether the durable image of the line containing
// addr matches the volatile view (i.e. the line's current contents would
// survive a crash).
func (m *Model) DurableEquals(addr uint64) bool {
	line := mem.LineAddr(addr)
	var v, d [mem.LineSize]byte
	m.volatile.Read(line, v[:])
	m.durable.Read(line, d[:])
	return v == d
}

// CrashSource identifies where a line's volatile-only content was sitting
// when the crash hit: still dirty in the cache, or snapshotted in the
// controller WPQ.
type CrashSource int

const (
	// SourceCache is a dirty cache line (would persist via spontaneous
	// eviction).
	SourceCache CrashSource = iota
	// SourceWPQ is a line snapshot pending in the controller (would
	// persist via spontaneous WPQ drain).
	SourceWPQ
)

// String returns the short name used in serialized fault plans.
func (s CrashSource) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceWPQ:
		return "wpq"
	default:
		return "invalid"
	}
}

// ParseCrashSource resolves the serialized name back to a CrashSource.
func ParseCrashSource(s string) (CrashSource, error) {
	switch s {
	case "cache":
		return SourceCache, nil
	case "wpq":
		return SourceWPQ, nil
	default:
		return 0, fmt.Errorf("pmem: unknown crash source %q", s)
	}
}

// LineChunks is the number of atomic write units per cache line: the NVM
// write atomicity the paper assumes is 8 bytes, so a 64-byte line persists
// as 8 independent chunks and a crash can leave any subset durable (a
// "torn" line).
const LineChunks = mem.LineSize / 8

// FullMask is the chunk mask persisting an entire line.
const FullMask uint8 = 1<<LineChunks - 1

// CrashOptions tune crash injection.
type CrashOptions struct {
	// EvictFrac is the probability that each dirty cache line was
	// spontaneously evicted (and its writeback drained) before the crash,
	// making it durable. Models the unpredictable LLC writeback order the
	// paper motivates failure safety with (§2.1). Must be in [0, 1].
	EvictFrac float64
	// DrainFrac is the probability that each WPQ entry drained to NVMM on
	// its own before the crash. Must be in [0, 1].
	DrainFrac float64
	// TornFrac is the probability that a spontaneously persisting line
	// lands torn: only a random subset of its 8-byte chunks becomes
	// durable, modeling the sub-line write atomicity of NVM. Must be in
	// [0, 1]; 0 keeps the historical whole-line behaviour.
	TornFrac float64
	// Rand drives the random choices; nil means no spontaneous
	// evictions or drains happen (strictest crash).
	Rand *rand.Rand
	// LineFate, when non-nil, overrides the random choices entirely: it is
	// called once per WPQ snapshot and then once per dirty line, in
	// ascending line order, and returns the chunk persist-mask for that
	// line (bit i set = bytes [8i, 8i+8) become durable; 0 = lost,
	// FullMask = whole line). Deterministic fault plans are built on this.
	LineFate func(line uint64, src CrashSource) uint8
}

// validate panics on malformed options, matching the simulator's
// knob-validation convention: a fraction outside [0, 1] silently degenerates
// into "never" or "always" and would invalidate a campaign's coverage claim.
func (o CrashOptions) validate() {
	check := func(name string, v float64) {
		if v < 0 || v > 1 || v != v {
			panic(fmt.Sprintf("pmem: CrashOptions.%s must be in [0,1], got %v", name, v))
		}
	}
	check("EvictFrac", o.EvictFrac)
	check("DrainFrac", o.DrainFrac)
	check("TornFrac", o.TornFrac)
}

// sortedLines returns the keys of a line-keyed map in ascending order, so
// crash injection visits lines deterministically regardless of map layout.
func sortedLines[V any](m map[uint64]V) []uint64 {
	lines := make([]uint64, 0, len(m))
	for line := range m {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

// persistMasked makes the selected 8-byte chunks of a line durable. src is
// the line content to persist (a WPQ snapshot, or nil for the current
// volatile content of a dirty line).
func (m *Model) persistMasked(line uint64, src []byte, mask uint8) {
	if mask == 0 {
		return
	}
	if src == nil {
		var buf [mem.LineSize]byte
		m.volatile.Read(line, buf[:])
		src = buf[:]
	}
	if mask != FullMask {
		m.stats.TornLines++
	}
	for c := 0; c < LineChunks; c++ {
		if mask&(1<<c) != 0 {
			m.durable.Write(line+uint64(c*8), src[c*8:c*8+8])
		}
	}
}

// tornMask returns the chunk mask for one spontaneously persisting line:
// the full line, or — with probability TornFrac — a random strict subset of
// its chunks (sub-line atomicity).
func tornMask(opts CrashOptions) uint8 {
	if opts.TornFrac > 0 && opts.Rand.Float64() < opts.TornFrac {
		return uint8(opts.Rand.Intn(int(FullMask))) // 0..FullMask-1: never the whole line
	}
	return FullMask
}

// Crash simulates power loss: the volatile view and WPQ are discarded and
// the program-visible state is reset to the durable image. Spontaneous
// drains/evictions selected by opts are applied first — WPQ snapshots
// before dirty-line evictions (an eviction carries the newer content), each
// visited in ascending line order so that seeded runs replay exactly. The
// allocator cursor is preserved so lost allocations are never reused.
func (m *Model) Crash(opts CrashOptions) {
	opts.validate()
	m.stats.Crashes++
	switch {
	case opts.LineFate != nil:
		for _, line := range sortedLines(m.wpq) {
			m.persistMasked(line, m.wpq[line], opts.LineFate(line, SourceWPQ))
		}
		for _, line := range sortedLines(m.dirty) {
			m.persistMasked(line, nil, opts.LineFate(line, SourceCache))
		}
	case opts.Rand != nil:
		for _, line := range sortedLines(m.wpq) {
			if opts.Rand.Float64() < opts.DrainFrac {
				m.persistMasked(line, m.wpq[line], tornMask(opts))
			}
		}
		for _, line := range sortedLines(m.dirty) {
			if opts.Rand.Float64() < opts.EvictFrac {
				m.persistMasked(line, nil, tornMask(opts))
			}
		}
	}
	brk := m.volatile.Brk()
	m.volatile = m.durable.Clone()
	m.volatile.SetBrk(brk)
	m.dirty = make(map[uint64]struct{})
	m.wpq = make(map[uint64][]byte)
	m.stats.Recoveries++
}

// PersistAll is a testing convenience: flush every dirty line and drain the
// WPQ, making the entire volatile view durable.
func (m *Model) PersistAll() {
	for line := range m.dirty {
		m.Clwb(line)
	}
	m.Pcommit()
}

// Clone returns a deep copy of the model: the volatile and durable images,
// the dirty set, the WPQ snapshots and the stats. The copy shares no memory
// with m, so either can run on (and crash) without disturbing the other —
// the fault engine forks every crash trial from one shared prefix this way.
func (m *Model) Clone() *Model {
	c := &Model{
		volatile: m.volatile.Clone(),
		durable:  m.durable.Clone(),
		dirty:    make(map[uint64]struct{}, len(m.dirty)),
		wpq:      make(map[uint64][]byte, len(m.wpq)),
		stats:    m.stats,
	}
	for line := range m.dirty {
		c.dirty[line] = struct{}{}
	}
	for line, buf := range m.wpq {
		c.wpq[line] = append([]byte(nil), buf...)
	}
	return c
}

// Stats returns a copy of the event counters.
func (m *Model) Stats() Stats { return m.stats }

// ResetStats clears the event counters.
func (m *Model) ResetStats() { m.stats = Stats{} }

// Register publishes the functional-persistence counters into the registry
// under the "pmem." key space.
func (m *Model) Register(r *obs.Registry) {
	r.RegisterFunc("pmem.stores", func() uint64 { return m.stats.Stores })
	r.RegisterFunc("pmem.loads", func() uint64 { return m.stats.Loads })
	r.RegisterFunc("pmem.clwbs", func() uint64 { return m.stats.Clwbs })
	r.RegisterFunc("pmem.flushed", func() uint64 { return m.stats.Flushed })
	r.RegisterFunc("pmem.pcommits", func() uint64 { return m.stats.Pcommits })
	r.RegisterFunc("pmem.sfences", func() uint64 { return m.stats.Sfences })
	r.RegisterFunc("pmem.persisted", func() uint64 { return m.stats.Persisted })
	r.RegisterFunc("pmem.crashes", func() uint64 { return m.stats.Crashes })
	r.RegisterFunc("pmem.recoveries", func() uint64 { return m.stats.Recoveries })
	r.RegisterFunc("pmem.torn_lines", func() uint64 { return m.stats.TornLines })
}
