package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"specpersist/internal/mem"
)

// cloneOps drives one model through the stores, clwbs, pcommits, crashes
// and allocations data encodes. Its addresses fall in a window of pages
// that data picks, so two sequences usually materialize different pages
// and queue different lines.
func cloneOps(m *Model, data []byte) {
	d := &diffDriver{data: data, touched: map[uint64]bool{}}
	first := mem.DefaultBase + uint64(d.next()%8)*mem.PageSize
	span := uint64(d.next()%4+1) * mem.PageSize
	addr := func() uint64 {
		switch d.next() % 16 {
		case 0:
			return d.u16() % (2 * mem.PageSize) // below the allocator base
		case 1, 2, 3, 4, 5, 6, 7:
			if len(d.recent) > 0 { // a line written lately, so clwbs queue it
				return d.recent[int(d.next())%len(d.recent)]
			}
		}
		return first + d.u16()%span
	}
	// Drains (pcommit, crash, PersistAll) are rare enough that a sequence
	// usually ends with lines queued in the WPQ.
	for len(d.data) > 0 {
		switch op := d.next() % 32; {
		case op < 12:
			a, n, fill := addr(), int(d.next())%130+1, d.next()
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = fill + byte(i)*31
			}
			d.wrote(a, n)
			m.Write(a, buf)
		case op < 15:
			a := addr()
			d.wrote(a, 8)
			m.WriteU64(a, uint64(d.next())*0x0101010101010101)
		case op < 27:
			m.Clwb(addr())
		case op == 27:
			m.Pcommit()
		case op == 28:
			switch d.next() % 3 {
			case 0:
				m.Crash(CrashOptions{})
			case 1:
				m.Crash(CrashOptions{EvictFrac: 0.5, DrainFrac: 0.5, TornFrac: 0.5, Rand: rand.New(rand.NewSource(int64(d.next())))})
			case 2:
				var log []fateCall
				m.Crash(CrashOptions{LineFate: fate(&log, d.next())})
			}
		case op == 29:
			m.Alloc(int(d.next()), 64)
		case op == 30:
			m.Sfence()
		default:
			if d.next()%4 == 0 {
				m.PersistAll()
			}
		}
	}
}

// modelsEqual reports how a differs from b: in either space's allocation
// cursor, materialized pages or page contents, in the dirty set, the WPQ
// or the stats. Each model's slot index must hold exactly its WPQ.
func modelsEqual(a, b *Model) error {
	for _, side := range []struct {
		name string
		a, b *mem.Space
	}{{"volatile", a.volatile, b.volatile}, {"durable", a.durable, b.durable}} {
		if side.a.Brk() != side.b.Brk() {
			return fmt.Errorf("%s brk %#x, want %#x", side.name, side.a.Brk(), side.b.Brk())
		}
		pa, pb := side.a.Materialized(), side.b.Materialized()
		if !slices.Equal(pa, pb) {
			return fmt.Errorf("%s pages %v, want %v", side.name, pa, pb)
		}
		ga, gb := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
		for _, n := range pa {
			side.a.Read(n<<mem.PageShift, ga)
			side.b.Read(n<<mem.PageShift, gb)
			if !bytes.Equal(ga, gb) {
				return fmt.Errorf("%s page %#x differs at byte %d", side.name, n, firstDiff(ga, gb))
			}
		}
	}
	var da, db []uint64
	a.dirty.each(func(line uint64) { da = append(da, line) })
	b.dirty.each(func(line uint64) { db = append(db, line) })
	if !slices.Equal(da, db) {
		return fmt.Errorf("dirty lines %#x, want %#x", da, db)
	}
	if !slices.Equal(a.wpq, b.wpq) {
		return fmt.Errorf("WPQ of %d lines differs from the %d wanted", len(a.wpq), len(b.wpq))
	}
	for _, m := range []*Model{a, b} {
		if err := slotsMatchWPQ(m); err != nil {
			return err
		}
	}
	if a.stats != b.stats {
		return fmt.Errorf("stats %+v, want %+v", a.stats, b.stats)
	}
	return nil
}

// runCloneInto forks a source into a model that already ran another
// sequence and checks the fork against Clone: right after the fork, after
// the source runs on alone (a fork shares nothing with it), and after both
// forks run the same further sequence.
func runCloneInto(t *testing.T, src, dst, after []byte) {
	s, d := New(), New()
	cloneOps(s, src)
	cloneOps(d, dst)
	want := s.Clone()
	if got := s.CloneInto(d); got != d {
		t.Fatal("CloneInto did not return its destination")
	}
	if err := modelsEqual(d, want); err != nil {
		t.Fatalf("CloneInto: %v", err)
	}
	cloneOps(s, after)
	if err := modelsEqual(d, want); err != nil {
		t.Fatalf("CloneInto after the source ran on: %v", err)
	}
	cloneOps(d, after)
	cloneOps(want, after)
	if err := modelsEqual(d, want); err != nil {
		t.Fatalf("CloneInto after both ran on: %v", err)
	}
}

func FuzzCloneIntoMatchesClone(f *testing.F) {
	for seed := int64(1); seed <= 16; seed++ {
		f.Add(randomCalls(seed, 600), randomCalls(-seed, 600), randomCalls(seed+100, 200))
	}
	f.Fuzz(func(t *testing.T, src, dst, after []byte) {
		for _, b := range []*[]byte{&src, &dst, &after} {
			if len(*b) > 4096 {
				*b = (*b)[:4096]
			}
		}
		runCloneInto(t, src, dst, after)
	})
}
