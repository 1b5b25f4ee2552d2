package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"specpersist/internal/mem"
)

// fateCall records one LineFate call.
type fateCall struct {
	line uint64
	src  CrashSource
}

// diffPair is a Model and the reference model, driven through the same
// calls. Each side keeps its own log of LineFate calls.
type diffPair struct {
	m            *Model
	r            *refModel
	mFate, rFate []fateCall
}

// diffPages is the number of pages a differential run allocates up front;
// most addresses fall in them.
const diffPages = 8

// diffDriver decodes a byte string into Write, WriteU64, Read, ReadU64,
// Clwb, Pcommit, Sfence, PersistAll, Alloc, Clone and Crash calls on pairs
// of models. Clone adds a pair, and the driver may move on to either side
// of it or back to an older pair, so edits on one side of a Clone that
// leak into the other show up as a mismatch against the reference.
type diffDriver struct {
	t       testing.TB
	data    []byte
	pairs   []*diffPair
	cur     int
	touched map[uint64]bool // line bases any call has addressed
	recent  []uint64        // the last few addresses written
	got     []byte          // check's buffers, reused
	want    []byte
}

func (d *diffDriver) next() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *diffDriver) u16() uint64 { return uint64(d.next()) | uint64(d.next())<<8 }

// addr picks an address: often in a line written recently (so flushes
// find dirty lines and stores re-dirty queued ones), else anywhere in the
// pages allocated above mem.DefaultBase, just below a page boundary (so
// accesses straddle two pages) or in low memory below the allocator base.
func (d *diffDriver) addr() uint64 {
	switch d.next() % 8 {
	case 0:
		return d.u16() % (2 * mem.PageSize)
	case 1:
		return mem.DefaultBase + (d.u16()%diffPages+1)*mem.PageSize - uint64(d.next()%16)
	case 2, 3, 4:
		if len(d.recent) > 0 {
			return d.recent[int(d.next())%len(d.recent)] ^ uint64(d.next()%mem.LineSize)
		}
		fallthrough
	default:
		return mem.DefaultBase + d.u16()%(diffPages*mem.PageSize)
	}
}

// wrote records a store's address among the recent ones and touches its
// lines.
func (d *diffDriver) wrote(addr uint64, n int) {
	if len(d.recent) == 16 {
		d.recent = d.recent[1:]
	}
	d.recent = append(d.recent, addr)
	d.touch(addr, n)
}

// touch records the lines of [addr, addr+n).
func (d *diffDriver) touch(addr uint64, n int) {
	for i := 0; i < mem.LinesSpanned(addr, n); i++ {
		d.touched[mem.LineAddr(addr)+uint64(i*mem.LineSize)] = true
	}
}

// fate returns a LineFate that logs its calls and picks each line's mask
// from the line, its source and salt: lost, whole or torn.
func fate(log *[]fateCall, salt byte) func(uint64, CrashSource) uint8 {
	return func(line uint64, src CrashSource) uint8 {
		*log = append(*log, fateCall{line, src})
		h := (line/mem.LineSize+uint64(src)*7919)*0x9e3779b97f4a7c15 ^ uint64(salt)*0xbf58476d1ce4e5b9
		h ^= h >> 29
		switch h % 4 {
		case 0:
			return 0
		case 1:
			return FullMask
		default:
			return uint8(h >> 8)
		}
	}
}

func (d *diffDriver) step() {
	p := d.pairs[d.cur]
	switch op := d.next() % 13; op {
	case 0, 1:
		a, n, fill := d.addr(), int(d.next())%130+1, d.next()
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = fill + byte(i)*31
		}
		d.wrote(a, n)
		p.m.Write(a, buf)
		p.r.Write(a, buf)
	case 2:
		a := d.addr()
		v := uint64(d.next())*0x0101010101010101 ^ a
		d.wrote(a, 8)
		p.m.WriteU64(a, v)
		p.r.WriteU64(a, v)
	case 3:
		a, n := d.addr(), int(d.next())%130+1
		got, want := make([]byte, n), make([]byte, n)
		p.m.Read(a, got)
		p.r.Read(a, want)
		if !bytes.Equal(got, want) {
			d.t.Fatalf("Read(%#x, %d) = %x, reference %x", a, n, got, want)
		}
	case 4:
		a := d.addr()
		if got, want := p.m.ReadU64(a), p.r.ReadU64(a); got != want {
			d.t.Fatalf("ReadU64(%#x) = %#x, reference %#x", a, got, want)
		}
	case 5, 6:
		a := d.addr()
		d.touch(a, 1)
		p.m.Clwb(a)
		p.r.Clwb(a)
	case 7:
		p.m.Pcommit()
		p.r.Pcommit()
	case 8:
		if d.next()%4 == 0 {
			p.m.PersistAll()
			p.r.PersistAll()
		} else {
			p.m.Sfence()
			p.r.Sfence()
		}
	case 9:
		size, align := int(d.next()%200), []int{0, 1, 8, 64}[d.next()%4]
		if got, want := p.m.Alloc(size, align), p.r.Alloc(size, align); got != want {
			d.t.Fatalf("Alloc(%d, %d) = %#x, reference %#x", size, align, got, want)
		}
	case 10:
		if len(d.pairs) == 8 {
			return
		}
		c := &diffPair{m: p.m.Clone(), r: p.r.Clone(),
			mFate: slices.Clone(p.mFate), rFate: slices.Clone(p.rFate)}
		d.pairs = append(d.pairs, c)
		if d.next()%2 == 0 {
			d.cur = len(d.pairs) - 1
		}
	case 11:
		d.crash(p)
		d.check(p, false)
	case 12:
		d.cur = int(d.next()) % len(d.pairs)
	}
}

// crash crashes both sides of p the same way: strictly, with seeded
// random drains, evictions and tears, or with LineFate masks.
func (d *diffDriver) crash(p *diffPair) {
	switch d.next() % 3 {
	case 0:
		p.m.Crash(CrashOptions{})
		p.r.Crash(CrashOptions{})
	case 1:
		frac := func() float64 { return float64(d.next()%5) / 4 }
		opts := CrashOptions{EvictFrac: frac(), DrainFrac: frac(), TornFrac: frac()}
		seed := int64(d.next())
		mr, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		opts.Rand = mr
		p.m.Crash(opts)
		opts.Rand = rr
		p.r.Crash(opts)
		if mr.Int63() != rr.Int63() {
			d.t.Fatalf("crash %+v drew a different number of random values from the reference", opts)
		}
	case 2:
		salt := d.next()
		p.m.Crash(CrashOptions{LineFate: fate(&p.mFate, salt)})
		p.r.Crash(CrashOptions{LineFate: fate(&p.rFate, salt)})
	}
}

// check requires p's two sides to agree on the allocator cursor, the
// state and the volatile and durable bytes of every touched line, the stats
// and the LineFate calls so far; it also checks that the Model's WPQ slot
// index matches its WPQ. With full set it compares the volatile and durable
// bytes over all of [0, brk+PageSize) as well.
func (d *diffDriver) check(p *diffPair, full bool) {
	d.t.Helper()
	brk := p.m.volatile.Brk()
	if brk != p.r.volatile.brk {
		d.t.Fatalf("brk %#x, reference %#x", brk, p.r.volatile.brk)
	}
	sides := []struct {
		name string
		m    *mem.Space
		r    *refSpace
	}{{"volatile", p.m.volatile, p.r.volatile}, {"durable", p.m.durable, p.r.durable}}
	compare := func(addr uint64, n int) {
		if len(d.got) < n {
			d.got, d.want = make([]byte, n), make([]byte, n)
		}
		got, want := d.got[:n], d.want[:n]
		for _, side := range sides {
			side.m.Read(addr, got)
			side.r.read(addr, want)
			if !bytes.Equal(got, want) {
				i := firstDiff(got, want)
				d.t.Fatalf("%s byte %#x = %#x, reference %#x", side.name, addr+uint64(i), got[i], want[i])
			}
		}
	}
	if full {
		compare(0, int(brk+mem.PageSize))
	}
	for line := range d.touched {
		compare(line, mem.LineSize)
		if g, w := p.m.LineState(line), p.r.LineState(line); g != w {
			d.t.Fatalf("LineState(%#x) = %v, reference %v", line, g, w)
		}
		if g, w := p.m.DurableEquals(line), p.r.DurableEquals(line); g != w {
			d.t.Fatalf("DurableEquals(%#x) = %v, reference %v", line, g, w)
		}
	}
	if g, w := p.m.Stats(), p.r.stats; g != w {
		d.t.Fatalf("Stats = %+v, reference %+v", g, w)
	}
	if !slices.Equal(p.mFate, p.rFate) {
		d.t.Fatalf("LineFate calls %v, reference %v", p.mFate, p.rFate)
	}
	if err := slotsMatchWPQ(p.m); err != nil {
		d.t.Fatal(err)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// slotsMatchWPQ reports an error unless the slot index holds exactly the
// WPQ's lines, each pointing at its own entry.
func slotsMatchWPQ(m *Model) error {
	used := 0
	for _, b := range m.slot.S {
		if b == nil {
			continue
		}
		for _, s := range b {
			if s != 0 {
				used++
			}
		}
	}
	if used != len(m.wpq) {
		return fmt.Errorf("slot index holds %d lines, WPQ %d", used, len(m.wpq))
	}
	for i, e := range m.wpq {
		if n := e.line / mem.LineSize; !m.queued(n) || *m.slotOf(n) != int32(i+1) {
			return fmt.Errorf("WPQ entry %d (line %#x) is not in the slot index", i, e.line)
		}
	}
	return nil
}

// runDiff drives a Model and the reference through the calls data
// encodes and checks every pair at the end.
func runDiff(t testing.TB, data []byte) {
	p := &diffPair{m: New(), r: newRefModel()}
	p.m.AllocLines(diffPages * mem.PageSize / mem.LineSize)
	p.r.AllocLines(diffPages * mem.PageSize / mem.LineSize)
	d := &diffDriver{t: t, data: data, pairs: []*diffPair{p}, touched: map[uint64]bool{}}
	for len(d.data) > 0 {
		d.step()
	}
	for _, p := range d.pairs {
		d.check(p, true)
	}
}

// randomCalls returns n seeded random bytes for runDiff.
func randomCalls(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestModelMatchesReference drives the Model and the map-based reference
// through seeded random call sequences.
func TestModelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runDiff(t, randomCalls(seed, 4000)) })
	}
}

func FuzzModelMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(randomCalls(seed, 1000))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8192 {
			data = data[:8192]
		}
		runDiff(t, data)
	})
}
