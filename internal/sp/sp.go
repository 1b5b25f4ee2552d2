// Package sp provides the hardware structures of Speculative Persistence
// (the paper's §4): the Speculative Store Buffer (SSB) that holds
// speculatively retired stores and delayed PMEM instructions, the Bloom
// filter that shields loads from SSB lookups, the checkpoint buffer, and
// the Block Lookup Table (BLT) used for coherence conflict detection.
package sp

import (
	"fmt"

	"specpersist/internal/isa"
	"specpersist/internal/mem"
)

// ssbLatencies is the paper's Table 3: SSB entries -> access latency.
var ssbLatencies = map[int]uint64{
	32: 2, 64: 3, 128: 4, 256: 5, 512: 7, 1024: 10,
}

// SSBSizes lists the SSB configurations evaluated in the paper (Table 3),
// in ascending order.
func SSBSizes() []int { return []int{32, 64, 128, 256, 512, 1024} }

// SSBLatency returns the access latency for an SSB with the given number
// of entries (Table 3). Positive sizes between table rows round up to the
// next configured size; non-positive sizes are a configuration error and
// panic (they used to silently round "up" to the smallest table latency,
// hiding a zero-entry SSB behind a plausible 2-cycle access time).
func SSBLatency(entries int) uint64 {
	if entries <= 0 {
		panic(fmt.Sprintf("sp: SSB entry count must be positive, got %d", entries))
	}
	if lat, ok := ssbLatencies[entries]; ok {
		return lat
	}
	for _, s := range SSBSizes() {
		if entries < s {
			return ssbLatencies[s]
		}
	}
	return ssbLatencies[1024]
}

// Entry is one SSB slot: a speculatively retired store or a delayed PMEM
// instruction, tagged with the speculative epoch it belongs to.
type Entry struct {
	Op    isa.Op
	Addr  uint64
	Size  uint8
	Epoch int
	// Barrier marks the special sfence–pcommit–sfence opcode inserted at
	// an epoch boundary (§4.2.2): the epoch's commit must run a pcommit
	// before the next epoch's entries may commit.
	Barrier bool
}

// SSB is the FIFO speculative store buffer. It preserves program order of
// stores and PMEM instructions within and across epochs. Its entries live
// in a fixed ring of cap slots, allocated at the first Push and kept by
// Reset.
type SSB struct {
	cap     int
	lat     uint64
	ring    []Entry // len 0 until the first Push, then cap
	head, n int     // oldest entry's slot; occupancy
	maxUsed int
}

// NewSSB builds an SSB with the given capacity and the Table 3 latency.
func NewSSB(capacity int) *SSB {
	if capacity <= 0 {
		panic("sp: SSB capacity must be positive")
	}
	s := &SSB{cap: capacity, lat: SSBLatency(capacity)}
	s.Reset()
	return s
}

// Reset returns the buffer to the state NewSSB left it in: empty, with no
// high-water mark, keeping its storage.
func (s *SSB) Reset() { *s = SSB{cap: s.cap, lat: s.lat, ring: s.ring} }

// Latency returns the CAM+RAM access latency in cycles.
func (s *SSB) Latency() uint64 { return s.lat }

// Len returns the current occupancy.
func (s *SSB) Len() int { return s.n }

// MaxUsed returns the occupancy high-water mark.
func (s *SSB) MaxUsed() int { return s.maxUsed }

// Full reports whether no slot is free.
func (s *SSB) Full() bool { return s.n >= s.cap }

// slot returns the ring index of the i-th oldest entry.
func (s *SSB) slot(i int) int {
	if i += s.head; i >= s.cap {
		i -= s.cap
	}
	return i
}

// Push appends an entry; it returns false if the buffer is full.
func (s *SSB) Push(e Entry) bool {
	if s.Full() {
		return false
	}
	if s.ring == nil {
		s.ring = make([]Entry, s.cap)
	}
	s.ring[s.slot(s.n)] = e
	s.n++
	s.maxUsed = max(s.maxUsed, s.n)
	return true
}

// Front returns the oldest entry without removing it.
func (s *SSB) Front() (Entry, bool) {
	if s.n == 0 {
		return Entry{}, false
	}
	return s.ring[s.head], true
}

// Pop removes and returns the oldest entry.
func (s *SSB) Pop() (Entry, bool) {
	if s.n == 0 {
		return Entry{}, false
	}
	e := s.ring[s.head]
	s.head = s.slot(1)
	s.n--
	return e, true
}

// MatchLoad reports whether any buffered store overlaps the byte range
// [addr, addr+size) — a store-to-load forwarding hit. The youngest match
// wins in hardware; for timing only existence matters.
func (s *SSB) MatchLoad(addr uint64, size int) bool {
	// The entries, oldest first, are older then wrapped.
	older := s.ring[s.head:min(s.head+s.n, s.cap)]
	wrapped := s.ring[:s.n-len(older)]
	end := addr + uint64(size)
	return overlapsStore(wrapped, addr, end) || overlapsStore(older, addr, end)
}

// overlapsStore reports whether a store among es, scanned youngest first,
// overlaps [addr, end).
func overlapsStore(es []Entry, addr, end uint64) bool {
	for i := len(es) - 1; i >= 0; i-- {
		e := &es[i]
		if e.Op == isa.Store && e.Addr < end && addr < e.Addr+uint64(e.Size) {
			return true
		}
	}
	return false
}

// Flush discards all entries (rollback).
func (s *SSB) Flush() { s.head, s.n = 0, 0 }

// Bloom is the 512-byte Bloom filter summarizing SSB store addresses
// (§4.2.2, as in CPR). It produces false positives but never false
// negatives, and is reset completely on exiting speculative execution.
type Bloom struct {
	bits   []uint64
	nbits  uint64
	hashes int

	adds, queries, hits uint64
}

// NewBloom builds a filter of the given size in bytes (the paper uses 512).
func NewBloom(bytes int) *Bloom {
	if bytes <= 0 || bytes%8 != 0 {
		panic("sp: bloom size must be a positive multiple of 8 bytes")
	}
	b := &Bloom{bits: make([]uint64, bytes/8), nbits: uint64(bytes * 8), hashes: 2}
	b.Reset()
	return b
}

// Reset returns the filter to the state NewBloom left it in: no bits set
// and no events counted.
func (b *Bloom) Reset() {
	*b = Bloom{bits: b.bits, nbits: b.nbits, hashes: b.hashes}
	b.Clear()
}

func (b *Bloom) hash(addr uint64, i int) uint64 {
	x := addr / mem.LineSize
	x ^= uint64(i) * 0x9e3779b97f4a7c15
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x % b.nbits
}

// Add records a store address.
func (b *Bloom) Add(addr uint64) {
	b.adds++
	for i := 0; i < b.hashes; i++ {
		h := b.hash(addr, i)
		b.bits[h/64] |= 1 << (h % 64)
	}
}

// MayContain tests an address; false means definitely absent.
func (b *Bloom) MayContain(addr uint64) bool {
	b.queries++
	for i := 0; i < b.hashes; i++ {
		h := b.hash(addr, i)
		if b.bits[h/64]&(1<<(h%64)) == 0 {
			return false
		}
	}
	b.hits++
	return true
}

// Clear clears the filter's bits (on exiting speculation); the event
// counters run on.
func (b *Bloom) Clear() { clear(b.bits) }

// Hits reports how many queries returned "may contain".
func (b *Bloom) Hits() uint64 { return b.hits }

// Checkpoints models the checkpoint buffer (4 entries in the paper's
// baseline, from the Figure 11 analysis).
type Checkpoints struct {
	cap, used int
	maxUsed   int
	stalls    uint64
}

// NewCheckpoints builds a buffer with the given capacity.
func NewCheckpoints(capacity int) *Checkpoints {
	if capacity <= 0 {
		panic("sp: checkpoint capacity must be positive")
	}
	c := &Checkpoints{cap: capacity}
	c.Reset()
	return c
}

// Reset returns the buffer to the state NewCheckpoints left it in.
func (c *Checkpoints) Reset() { *c = Checkpoints{cap: c.cap} }

// Take reserves a checkpoint; false means none is free (the processor must
// stall until one is released).
func (c *Checkpoints) Take() bool {
	if c.used >= c.cap {
		c.stalls++
		return false
	}
	c.used++
	if c.used > c.maxUsed {
		c.maxUsed = c.used
	}
	return true
}

// Release frees the oldest checkpoint (its epoch committed).
func (c *Checkpoints) Release() {
	if c.used == 0 {
		panic("sp: Release without a live checkpoint")
	}
	c.used--
}

// Used returns the live checkpoint count.
func (c *Checkpoints) Used() int { return c.used }

// MaxUsed returns the concurrency high-water mark.
func (c *Checkpoints) MaxUsed() int { return c.maxUsed }

// Stalls returns how many Take attempts found the buffer full.
func (c *Checkpoints) Stalls() uint64 { return c.stalls }

// BLT is the block lookup table recording every cache-block address touched
// by speculative loads and stores (as in SC++). External coherence requests
// are checked against it; a hit aborts speculation. The design does not
// distinguish epochs: any conflict rolls back to the oldest checkpoint.
type BLT struct {
	blocks mem.LineSet
	max    int
}

// NewBLT returns an empty table.
func NewBLT() *BLT {
	b := &BLT{}
	b.Reset()
	return b
}

// Reset returns the table to the state NewBLT left it in: empty, with no
// high-water mark, keeping its storage.
func (b *BLT) Reset() {
	b.Clear()
	b.max = 0
}

// Record notes a speculative access to the block containing addr.
func (b *BLT) Record(addr uint64) {
	if b.blocks.Add(addr) && b.blocks.Len() > b.max {
		b.max = b.blocks.Len()
	}
}

// Conflicts reports whether an external access to addr hits speculative
// state.
func (b *BLT) Conflicts(addr uint64) bool { return b.blocks.Has(addr) }

// Len returns the live block count.
func (b *BLT) Len() int { return b.blocks.Len() }

// Max returns the lifetime size high-water mark: the largest speculative
// footprint any single speculation episode reached. It deliberately
// survives Clear — the figure the paper sizes the table from is the
// worst case across a whole run, not one episode — so it only ever grows.
func (b *BLT) Max() int { return b.max }

// Clear clears the live block set (speculation ended or rolled back) in
// O(1). The Max high-water mark is NOT cleared; see Max.
func (b *BLT) Clear() { b.blocks.Clear() }

// String summarizes the table for debugging.
func (b *BLT) String() string { return fmt.Sprintf("BLT{%d blocks}", b.blocks.Len()) }
