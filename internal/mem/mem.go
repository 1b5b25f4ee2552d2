// Package mem provides the simulated byte-addressable memory space that
// persistent data structures execute against.
//
// Storage is allocated in fixed-size pages on first write, found through a
// page table: a Table (a slice indexed from its first entry) of pages by
// page number, addr >> PageShift. The allocator bumps addresses up from
// DefaultBase, so the table is dense and a load or store costs one slice
// index instead of a hash. The table grows on the first write to a page
// outside it; a read outside it (or of a page never written) returns
// zeros. A write at or above a fixed ceiling (64 GiB) panics rather than
// grow the table. Addresses are plain uint64 values in a flat address
// space; address 0 is reserved as the nil pointer.
package mem

import (
	"encoding/binary"
	"fmt"
)

const (
	// LineSize is the cache-block size used throughout the simulator.
	// The paper sizes every data-structure node to one 64-byte line.
	LineSize = 64

	// PageShift/PageSize define the backing-page granularity.
	PageShift = 12
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1

	// maxAddr bounds the page table: a write at or above it panics. It is
	// far above any image the simulator builds (HM, the largest Table 1
	// image, spans 16 MB at scale 0.1) and keeps a wild pointer from
	// growing the table without bound; at the ceiling the table is 16M
	// entries (128 MB).
	maxAddr = 1 << 36
)

// LineAddr returns the line-aligned base address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }

// LinesSpanned returns the number of cache lines touched by the byte range
// [addr, addr+size).
func LinesSpanned(addr uint64, size int) int {
	if size <= 0 {
		return 0
	}
	first := LineAddr(addr)
	last := LineAddr(addr + uint64(size) - 1)
	return int((last-first)/LineSize) + 1
}

// Space is a paged simulated memory. The zero value is not usable; call
// NewSpace.
type Space struct {
	pages Table[*[PageSize]byte] // page table by page number; nil = never written
	brk   uint64                 // bump-allocation cursor
}

// NewSpace returns an empty memory space whose allocator starts at base.
// base must be non-zero (0 is the nil address) and line-aligned.
func NewSpace(base uint64) *Space {
	if base == 0 || base%LineSize != 0 {
		panic(fmt.Sprintf("mem: invalid allocator base %#x", base))
	}
	return &Space{brk: base}
}

// DefaultBase is the conventional allocator base used by the simulator:
// a 1 MiB offset, leaving low memory free for metadata regions.
const DefaultBase = 1 << 20

// Alloc reserves size bytes aligned to align (which must be a power of two,
// or 0/1 for byte alignment) and returns the base address. Allocation is a
// bump pointer: the simulator never frees (the paper's benchmarks likewise
// do not garbage-collect deleted nodes, §5.2).
func (s *Space) Alloc(size int, align int) uint64 {
	if size < 0 {
		panic("mem: negative allocation")
	}
	if align <= 1 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: alignment %d not a power of two", align))
	}
	a := uint64(align)
	addr := (s.brk + a - 1) &^ (a - 1)
	s.brk = addr + uint64(size)
	return addr
}

// AllocLines reserves n cache lines, line-aligned.
func (s *Space) AllocLines(n int) uint64 { return s.Alloc(n*LineSize, LineSize) }

// Brk returns the current allocation cursor (exclusive upper bound of all
// allocations so far).
func (s *Space) Brk() uint64 { return s.brk }

// readPage returns the page holding addr, or nil if it was never written.
func (s *Space) readPage(addr uint64) *[PageSize]byte { return s.pages.Get(addr >> PageShift) }

// writePage returns the page holding addr, materializing it (and growing
// the table) on first write.
func (s *Space) writePage(addr uint64) *[PageSize]byte {
	if p := s.readPage(addr); p != nil {
		return p
	}
	if addr >= maxAddr {
		panic(fmt.Sprintf("mem: write at %#x is past the page-table ceiling %#x", addr, uint64(maxAddr)))
	}
	p := new([PageSize]byte)
	*s.pages.Ref(addr >> PageShift) = p
	return p
}

// Read copies len(dst) bytes starting at addr into dst. Untouched memory
// reads as zero.
func (s *Space) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		off := int(addr & pageMask)
		n := PageSize - off
		if n > len(dst) {
			n = len(dst)
		}
		if p := s.readPage(addr); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write copies src into memory starting at addr.
func (s *Space) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		off := int(addr & pageMask)
		n := copy(s.writePage(addr)[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadU64 reads a little-endian uint64 at addr.
func (s *Space) ReadU64(addr uint64) uint64 {
	if off := addr & pageMask; off <= PageSize-8 {
		if p := s.readPage(addr); p != nil {
			return binary.LittleEndian.Uint64(p[off:])
		}
		return 0
	}
	var b [8]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64 at addr.
func (s *Space) WriteU64(addr uint64, v uint64) {
	if off := addr & pageMask; off <= PageSize-8 {
		binary.LittleEndian.PutUint64(s.writePage(addr)[off:], v)
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(addr, b[:])
}

// Clone returns a deep copy of the space: CloneInto of an empty space, so
// every page lands in one backing allocation.
func (s *Space) Clone() *Space { return s.CloneInto(new(Space)) }

// CloneInto makes dst a deep copy of s, allocation cursor included, reusing
// the table and pages dst already holds, and returns dst. The fault engine
// forks every crash trial into a recycled image this way.
func (s *Space) CloneInto(dst *Space) *Space {
	dst.copyPages(s)
	dst.brk = s.brk
	return dst
}

// CopyFrom makes the contents and materialized pages of s equal to those
// of src, reusing the pages s already holds; the allocation cursor of s is
// left alone. The persistence model resets its volatile view to the
// durable image this way at a crash.
func (s *Space) CopyFrom(src *Space) { s.copyPages(src) }

// copyPages is the one copy routine of a space: it makes s's pages equal
// to src's. A page src lacks is dropped from s, so a never-written page
// stays nil; a page src holds is copied into a page s already holds (at
// the same index, else one s dropped), and the pages still missing come
// from one new backing allocation.
func (s *Space) copyPages(src *Space) {
	if len(src.pages.S) > 0 {
		// Cover src's run up front, so the table grows at most twice.
		s.pages.Ref(src.pages.Lo)
		s.pages.Ref(src.pages.Lo + uint64(len(src.pages.S)) - 1)
	}
	var spare []*[PageSize]byte
	need := 0
	for i, p := range s.pages.S {
		switch q := src.pages.Get(s.pages.Lo + uint64(i)); {
		case q == nil && p != nil:
			spare = append(spare, p)
			s.pages.S[i] = nil
		case q != nil && p == nil:
			need++
		}
	}
	var slab [][PageSize]byte
	if need > len(spare) {
		slab = make([][PageSize]byte, need-len(spare))
	}
	for i, q := range src.pages.S {
		if q == nil {
			continue
		}
		p := s.pages.Ref(src.pages.Lo + uint64(i))
		if *p == nil {
			if n := len(spare); n > 0 {
				*p, spare = spare[n-1], spare[:n-1]
			} else {
				*p, slab = &slab[0], slab[1:]
			}
		}
		**p = *q
	}
}

// Materialized returns the numbers of the pages ever written, ascending.
// A page a copy dropped is not among them: it reads as zeros, like one
// never written.
func (s *Space) Materialized() []uint64 {
	var out []uint64
	for i, p := range s.pages.S {
		if p != nil {
			out = append(out, s.pages.Lo+uint64(i))
		}
	}
	return out
}

// Table is a dense table over a run of indexes that grows in either
// direction to cover the indexes written: S[i] holds index Lo+i, and an
// index outside the run reads as the zero T. The simulator keeps its
// per-page and per-line state in Tables indexed by page or line number,
// so a lookup is a subtraction and a slice index, and a table spans only
// what was written (not the 1 MiB below DefaultBase).
type Table[T any] struct {
	Lo uint64
	S  []T
}

// Get returns the element at index i, or the zero T outside the table.
func (t *Table[T]) Get(i uint64) T {
	if j := i - t.Lo; j < uint64(len(t.S)) {
		return t.S[j]
	}
	var zero T
	return zero
}

// Ref returns a pointer to the element at index i, growing the table to
// cover it. An empty table starts at i; growing downwards at least doubles
// the table, so indexes written in descending order cost amortized O(1).
func (t *Table[T]) Ref(i uint64) *T {
	if len(t.S) == 0 {
		t.Lo = i
	}
	if i < t.Lo {
		grow := max(t.Lo-i, min(uint64(len(t.S)), t.Lo))
		t.S = append(make([]T, grow, grow+uint64(len(t.S))), t.S...)
		t.Lo -= grow
	}
	if j := i - t.Lo; j >= uint64(len(t.S)) {
		t.S = append(t.S, make([]T, j+1-uint64(len(t.S)))...)
	}
	return &t.S[i-t.Lo]
}

// CloneInto makes dst a copy of t that shares no memory with it, reusing
// dst's storage when it is large enough.
func (t *Table[T]) CloneInto(dst *Table[T]) {
	dst.Lo = t.Lo
	dst.S = append(dst.S[:0], t.S...)
}
