package pmem

import (
	"encoding/binary"
	"sort"

	"specpersist/internal/mem"
)

// The reference model below is the map-based persistence model the dense
// Model replaced, kept as an independent oracle: pages, the dirty set and
// the WPQ are all hash maps, and crash injection sorts their keys. The
// differential tests in diff_test.go drive both through the same
// calls and require identical observable state.

// refSpace is a sparse memory: pages materialize in a map on first write.
type refSpace struct {
	pages map[uint64]*[mem.PageSize]byte
	brk   uint64
}

func newRefSpace(base uint64) *refSpace {
	return &refSpace{pages: make(map[uint64]*[mem.PageSize]byte), brk: base}
}

func (s *refSpace) alloc(size, align int) uint64 {
	if align <= 1 {
		align = 1
	}
	a := uint64(align)
	addr := (s.brk + a - 1) &^ (a - 1)
	s.brk = addr + uint64(size)
	return addr
}

func (s *refSpace) page(addr uint64, create bool) *[mem.PageSize]byte {
	id := addr >> mem.PageShift
	p := s.pages[id]
	if p == nil && create {
		p = new([mem.PageSize]byte)
		s.pages[id] = p
	}
	return p
}

func (s *refSpace) read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := int(addr % mem.PageSize)
		n := min(mem.PageSize-off, len(dst))
		if p := s.page(addr, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

func (s *refSpace) write(addr uint64, src []byte) {
	for len(src) > 0 {
		off := int(addr % mem.PageSize)
		n := min(mem.PageSize-off, len(src))
		copy(s.page(addr, true)[off:off+n], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

func (s *refSpace) clone() *refSpace {
	c := &refSpace{pages: make(map[uint64]*[mem.PageSize]byte, len(s.pages)), brk: s.brk}
	for id, p := range s.pages {
		cp := *p
		c.pages[id] = &cp
	}
	return c
}

// refModel tracks dirty lines and WPQ snapshots in maps keyed by line base.
type refModel struct {
	volatile *refSpace
	durable  *refSpace
	dirty    map[uint64]struct{}
	wpq      map[uint64][]byte
	stats    Stats
}

func newRefModel() *refModel {
	return &refModel{
		volatile: newRefSpace(mem.DefaultBase),
		durable:  newRefSpace(mem.DefaultBase),
		dirty:    make(map[uint64]struct{}),
		wpq:      make(map[uint64][]byte),
	}
}

func (m *refModel) Alloc(size, align int) uint64 { return m.volatile.alloc(size, align) }

func (m *refModel) AllocLines(n int) uint64 { return m.volatile.alloc(n*mem.LineSize, mem.LineSize) }

func (m *refModel) Read(addr uint64, dst []byte) {
	m.stats.Loads++
	m.volatile.read(addr, dst)
}

func (m *refModel) Write(addr uint64, src []byte) {
	m.stats.Stores++
	m.volatile.write(addr, src)
	first := mem.LineAddr(addr)
	for i := 0; i < mem.LinesSpanned(addr, len(src)); i++ {
		m.dirty[first+uint64(i*mem.LineSize)] = struct{}{}
	}
}

func (m *refModel) ReadU64(addr uint64) uint64 {
	var b [8]byte
	m.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 marks only the line holding addr dirty, even when an unaligned
// value spills into the next line.
func (m *refModel) WriteU64(addr, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	m.stats.Stores++
	m.volatile.write(addr, b[:])
	m.dirty[mem.LineAddr(addr)] = struct{}{}
}

func (m *refModel) Clwb(addr uint64) {
	m.stats.Clwbs++
	line := mem.LineAddr(addr)
	if _, ok := m.dirty[line]; !ok {
		return
	}
	buf := make([]byte, mem.LineSize)
	m.volatile.read(line, buf)
	m.wpq[line] = buf
	delete(m.dirty, line)
	m.stats.Flushed++
}

func (m *refModel) Pcommit() {
	m.stats.Pcommits++
	for line, buf := range m.wpq {
		m.durable.write(line, buf)
		m.stats.Persisted++
		delete(m.wpq, line)
	}
}

func (m *refModel) Sfence() { m.stats.Sfences++ }

func (m *refModel) LineState(addr uint64) LineState {
	line := mem.LineAddr(addr)
	if _, ok := m.dirty[line]; ok {
		return Dirty
	}
	if _, ok := m.wpq[line]; ok {
		return InWPQ
	}
	return Clean
}

func (m *refModel) DurableEquals(addr uint64) bool {
	line := mem.LineAddr(addr)
	var v, d [mem.LineSize]byte
	m.volatile.read(line, v[:])
	m.durable.read(line, d[:])
	return v == d
}

func refSortedLines[V any](m map[uint64]V) []uint64 {
	lines := make([]uint64, 0, len(m))
	for line := range m {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	return lines
}

func (m *refModel) persistMasked(line uint64, src []byte, mask uint8) {
	if mask == 0 {
		return
	}
	if src == nil {
		src = make([]byte, mem.LineSize)
		m.volatile.read(line, src)
	}
	if mask != FullMask {
		m.stats.TornLines++
	}
	for c := 0; c < LineChunks; c++ {
		if mask&(1<<c) != 0 {
			m.durable.write(line+uint64(c*8), src[c*8:c*8+8])
		}
	}
}

func refTornMask(opts CrashOptions) uint8 {
	if opts.TornFrac > 0 && opts.Rand.Float64() < opts.TornFrac {
		return uint8(opts.Rand.Intn(int(FullMask)))
	}
	return FullMask
}

func (m *refModel) Crash(opts CrashOptions) {
	m.stats.Crashes++
	switch {
	case opts.LineFate != nil:
		for _, line := range refSortedLines(m.wpq) {
			m.persistMasked(line, m.wpq[line], opts.LineFate(line, SourceWPQ))
		}
		for _, line := range refSortedLines(m.dirty) {
			m.persistMasked(line, nil, opts.LineFate(line, SourceCache))
		}
	case opts.Rand != nil:
		for _, line := range refSortedLines(m.wpq) {
			if opts.Rand.Float64() < opts.DrainFrac {
				m.persistMasked(line, m.wpq[line], refTornMask(opts))
			}
		}
		for _, line := range refSortedLines(m.dirty) {
			if opts.Rand.Float64() < opts.EvictFrac {
				m.persistMasked(line, nil, refTornMask(opts))
			}
		}
	}
	brk := m.volatile.brk
	m.volatile = m.durable.clone()
	m.volatile.brk = brk
	m.dirty = make(map[uint64]struct{})
	m.wpq = make(map[uint64][]byte)
	m.stats.Recoveries++
}

func (m *refModel) PersistAll() {
	for line := range m.dirty {
		m.Clwb(line)
	}
	m.Pcommit()
}

func (m *refModel) Clone() *refModel {
	c := &refModel{
		volatile: m.volatile.clone(),
		durable:  m.durable.clone(),
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
