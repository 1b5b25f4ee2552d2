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
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

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
//
// Line state is indexed by line number (address / mem.LineSize) rather
// than hashed: the dirty set is a bitset, and the WPQ is a slice of line
// snapshots in flush order with a per-line slot index, so a store, a clwb
// and a pcommit touch no map and allocate nothing once warm.
type Model struct {
	volatile *mem.Space
	durable  *mem.Space
	dirty    bitset     // line number -> dirty in cache
	wpq      []wpqEntry // snapshots pending in the controller, in flush order
	// slot maps a line number to 1 + its wpq index (0 = not queued),
	// through a table of per-page blocks: an image's lines span far more
	// address space than its flushes touch, so a flat per-line index would
	// be mostly zeros to allocate and copy.
	slot  mem.Table[*slotBlock]
	stats Stats
}

// linesPerBlock is the number of lines one slot block covers: a page.
const linesPerBlock = mem.PageSize / mem.LineSize

// slotBlock holds the WPQ slots of one page's lines.
type slotBlock [linesPerBlock]int32

// wpqEntry is one line snapshot pending in the controller.
type wpqEntry struct {
	line uint64 // line base address
	data [mem.LineSize]byte
}

// New returns a fresh model whose allocator starts at mem.DefaultBase.
func New() *Model {
	return &Model{
		volatile: mem.NewSpace(mem.DefaultBase),
		durable:  mem.NewSpace(mem.DefaultBase),
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
// A newer store to a line whose older snapshot is pending in the WPQ does
// not disturb the snapshot: the WPQ holds the content at writeback time.
func (m *Model) Write(addr uint64, src []byte) {
	m.stats.Stores++
	m.volatile.Write(addr, src)
	first := addr / mem.LineSize
	for i := 0; i < mem.LinesSpanned(addr, len(src)); i++ {
		m.dirty.set(first + uint64(i))
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
	m.dirty.set(addr / mem.LineSize)
}

// Clwb writes the line containing addr back to the controller WPQ if it is
// dirty. The line remains cached (functionally: remains readable, which it
// always is in this model). Clean lines are a no-op, as in hardware.
// Flushing a line already queued overwrites its snapshot in place.
func (m *Model) Clwb(addr uint64) {
	m.stats.Clwbs++
	n := addr / mem.LineSize
	if !m.dirty.has(n) {
		return
	}
	m.dirty.unset(n)
	cell := m.slotOf(n)
	if *cell == 0 {
		m.wpq = append(m.wpq, wpqEntry{line: n * mem.LineSize})
		*cell = int32(len(m.wpq))
	}
	m.volatile.Read(n*mem.LineSize, m.wpq[*cell-1].data[:])
	m.stats.Flushed++
}

// slotOf returns the WPQ slot of line number n, making its block.
func (m *Model) slotOf(n uint64) *int32 {
	b := m.slot.Ref(n / linesPerBlock)
	if *b == nil {
		*b = new(slotBlock)
	}
	return &(*b)[n%linesPerBlock]
}

// queued reports whether line number n has a snapshot in the WPQ.
func (m *Model) queued(n uint64) bool {
	b := m.slot.Get(n / linesPerBlock)
	return b != nil && b[n%linesPerBlock] != 0
}

// dropWPQ empties the WPQ and clears its lines' slots.
func (m *Model) dropWPQ() {
	for i := range m.wpq {
		*m.slotOf(m.wpq[i].line / mem.LineSize) = 0
	}
	m.wpq = m.wpq[:0]
}

// Clflushopt has the same persistence effect as Clwb in this functional
// model (eviction only affects timing, which the cache model handles).
func (m *Model) Clflushopt(addr uint64) { m.Clwb(addr) }

// Pcommit drains the WPQ: every pending line snapshot becomes durable.
func (m *Model) Pcommit() {
	m.stats.Pcommits++
	for i := range m.wpq {
		m.durable.Write(m.wpq[i].line, m.wpq[i].data[:])
	}
	m.stats.Persisted += uint64(len(m.wpq))
	m.dropWPQ()
}

// Sfence is an ordering point. The functional model executes sequentially,
// so it only counts the event; ordering is enforced by construction.
func (m *Model) Sfence() { m.stats.Sfences++ }

// LineState reports the persistence status of the line containing addr.
func (m *Model) LineState(addr uint64) LineState {
	switch n := addr / mem.LineSize; {
	case m.dirty.has(n):
		return Dirty
	case m.queued(n):
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
	// Visit WPQ snapshots in ascending line order, then dirty lines.
	slices.SortFunc(m.wpq, func(a, b wpqEntry) int { return cmp.Compare(a.line, b.line) })
	switch {
	case opts.LineFate != nil:
		for i := range m.wpq {
			m.persistMasked(m.wpq[i].line, m.wpq[i].data[:], opts.LineFate(m.wpq[i].line, SourceWPQ))
		}
		m.dirty.each(func(line uint64) {
			m.persistMasked(line, nil, opts.LineFate(line, SourceCache))
		})
	case opts.Rand != nil:
		for i := range m.wpq {
			if opts.Rand.Float64() < opts.DrainFrac {
				m.persistMasked(m.wpq[i].line, m.wpq[i].data[:], tornMask(opts))
			}
		}
		m.dirty.each(func(line uint64) {
			if opts.Rand.Float64() < opts.EvictFrac {
				m.persistMasked(line, nil, tornMask(opts))
			}
		})
	}
	m.volatile.CopyFrom(m.durable) // keeps the volatile allocator cursor
	clear(m.dirty.S)
	m.dropWPQ()
	m.stats.Recoveries++
}

// PersistAll is a testing convenience: flush every dirty line and drain the
// WPQ, making the entire volatile view durable.
func (m *Model) PersistAll() {
	m.dirty.each(m.Clwb)
	m.Pcommit()
}

// Clone returns a deep copy of the model: the volatile and durable images,
// the dirty set, the WPQ snapshots and the stats. The copy shares no memory
// with m, so either can run on (and crash) without disturbing the other.
// It is CloneInto of an empty model.
func (m *Model) Clone() *Model {
	return m.CloneInto(&Model{volatile: new(mem.Space), durable: new(mem.Space)})
}

// CloneInto makes dst a deep copy of m, as Clone does, reusing the pages,
// bitset words, WPQ and slot blocks dst already holds, and returns dst.
// The fault engine forks every crash trial from one shared prefix into a
// recycled model this way.
func (m *Model) CloneInto(dst *Model) *Model {
	// Clear dst's own slots first: its queued lines need not be m's.
	dst.dropWPQ()
	m.volatile.CloneInto(dst.volatile)
	m.durable.CloneInto(dst.durable)
	m.dirty.CloneInto(&dst.dirty.Table)
	dst.wpq = append(dst.wpq[:0], m.wpq...)
	dst.stats = m.stats
	// The slot index is rebuilt, not copied: it covers only the lines
	// queued now, usually none.
	for i := range dst.wpq {
		*dst.slotOf(dst.wpq[i].line / mem.LineSize) = int32(i + 1)
	}
	return dst
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

// bitset is a set of line numbers, one bit each, in a table of words.
type bitset struct{ mem.Table[uint64] }

func (b *bitset) has(n uint64) bool { return b.Get(n/64)&(1<<(n%64)) != 0 }

func (b *bitset) set(n uint64) { *b.Ref(n / 64) |= 1 << (n % 64) }

func (b *bitset) unset(n uint64) {
	if b.Get(n/64) != 0 {
		*b.Ref(n / 64) &^= 1 << (n % 64)
	}
}

// each calls f with the base address of every line in the set, ascending.
// f may remove lines from the set.
func (b *bitset) each(f func(line uint64)) {
	for w, word := range b.S {
		for ; word != 0; word &= word - 1 {
			f(((b.Lo+uint64(w))*64 + uint64(bits.TrailingZeros64(word))) * mem.LineSize)
		}
	}
}
