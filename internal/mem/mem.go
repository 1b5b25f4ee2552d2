// Package mem provides the simulated byte-addressable memory space that
// persistent data structures execute against.
//
// The space is sparse: storage is allocated in fixed-size pages on first
// touch, so populating a few hundred megabytes of tree nodes costs only the
// pages actually written. Addresses are plain uint64 values in a flat
// address space; address 0 is reserved as the nil pointer.
package mem

import (
	"encoding/binary"
	"fmt"
)

const (
	// LineSize is the cache-block size used throughout the simulator.
	// The paper sizes every data-structure node to one 64-byte line.
	LineSize = 64

	// PageShift/PageSize define the sparse backing-page granularity.
	PageShift = 12
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
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

// Space is a sparse, paged simulated memory. The zero value is not usable;
// call NewSpace.
type Space struct {
	pages map[uint64]*[PageSize]byte
	brk   uint64 // bump-allocation cursor
}

// NewSpace returns an empty memory space whose allocator starts at base.
// base must be non-zero (0 is the nil address) and line-aligned.
func NewSpace(base uint64) *Space {
	if base == 0 || base%LineSize != 0 {
		panic(fmt.Sprintf("mem: invalid allocator base %#x", base))
	}
	return &Space{pages: make(map[uint64]*[PageSize]byte), brk: base}
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

// SetBrk advances the allocation cursor. It only moves forward: after a
// simulated crash the persistence model restores the pre-crash cursor so
// that addresses allocated by lost transactions are never reused.
func (s *Space) SetBrk(b uint64) {
	if b < s.brk {
		panic("mem: SetBrk may not move the allocator backwards")
	}
	s.brk = b
}

func (s *Space) page(addr uint64, create bool) *[PageSize]byte {
	id := addr >> PageShift
	p := s.pages[id]
	if p == nil && create {
		p = new([PageSize]byte)
		s.pages[id] = p
	}
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
		if p := s.page(addr, false); p != nil {
			copy(dst[:n], p[off:off+n])
		} else {
			for i := 0; i < n; i++ {
				dst[i] = 0
			}
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write copies src into memory starting at addr.
func (s *Space) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		off := int(addr & pageMask)
		n := PageSize - off
		if n > len(src) {
			n = len(src)
		}
		copy(s.page(addr, true)[off:off+n], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadU64 reads a little-endian uint64 at addr.
func (s *Space) ReadU64(addr uint64) uint64 {
	var b [8]byte
	s.Read(addr, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// WriteU64 writes a little-endian uint64 at addr.
func (s *Space) WriteU64(addr uint64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	s.Write(addr, b[:])
}

// Clone returns a deep copy of the space. Used by the crash model to
// snapshot the durable image.
func (s *Space) Clone() *Space {
	c := &Space{pages: make(map[uint64]*[PageSize]byte, len(s.pages)), brk: s.brk}
	for id, p := range s.pages {
		cp := new([PageSize]byte)
		*cp = *p
		c.pages[id] = cp
	}
	return c
}
