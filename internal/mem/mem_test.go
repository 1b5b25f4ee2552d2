package mem

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// LineOffset returns the offset of addr within its cache line.
func LineOffset(addr uint64) int { return int(addr & (LineSize - 1)) }

// SameLine reports whether two addresses fall in the same cache line.
func SameLine(a, b uint64) bool { return LineAddr(a) == LineAddr(b) }

func TestLineHelpers(t *testing.T) {
	tests := []struct {
		addr     uint64
		wantBase uint64
		wantOff  int
	}{
		{0, 0, 0},
		{1, 0, 1},
		{63, 0, 63},
		{64, 64, 0},
		{65, 64, 1},
		{0x12345, 0x12340, 5},
	}
	for _, tt := range tests {
		if got := LineAddr(tt.addr); got != tt.wantBase {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", tt.addr, got, tt.wantBase)
		}
		if got := LineOffset(tt.addr); got != tt.wantOff {
			t.Errorf("LineOffset(%#x) = %d, want %d", tt.addr, got, tt.wantOff)
		}
	}
}

func TestSameLine(t *testing.T) {
	if !SameLine(0, 63) {
		t.Error("0 and 63 should share a line")
	}
	if SameLine(63, 64) {
		t.Error("63 and 64 should not share a line")
	}
}

func TestLinesSpanned(t *testing.T) {
	tests := []struct {
		addr uint64
		size int
		want int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 64, 1},
		{0, 65, 2},
		{63, 1, 1},
		{63, 2, 2},
		{60, 256, 5},
		{64, 128, 2},
	}
	for _, tt := range tests {
		if got := LinesSpanned(tt.addr, tt.size); got != tt.want {
			t.Errorf("LinesSpanned(%#x, %d) = %d, want %d", tt.addr, tt.size, got, tt.want)
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	s := NewSpace(DefaultBase)
	a := s.Alloc(10, 64)
	if a%64 != 0 {
		t.Errorf("Alloc not 64-aligned: %#x", a)
	}
	b := s.Alloc(1, 64)
	if b%64 != 0 || b <= a {
		t.Errorf("second Alloc bad: a=%#x b=%#x", a, b)
	}
	c := s.Alloc(8, 8)
	if c%8 != 0 {
		t.Errorf("Alloc not 8-aligned: %#x", c)
	}
}

func TestAllocNeverReturnsNil(t *testing.T) {
	s := NewSpace(DefaultBase)
	for i := 0; i < 1000; i++ {
		if a := s.AllocLines(1); a == 0 {
			t.Fatal("allocator returned nil address")
		}
	}
}

func TestAllocPanics(t *testing.T) {
	s := NewSpace(DefaultBase)
	for _, fn := range []func(){
		func() { s.Alloc(-1, 1) },
		func() { s.Alloc(8, 3) },
		func() { NewSpace(0) },
		func() { NewSpace(33) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	s := NewSpace(DefaultBase)
	data := []byte("hello, persistent world")
	addr := s.Alloc(len(data), 1)
	s.Write(addr, data)
	got := make([]byte, len(data))
	s.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Errorf("round trip: got %q want %q", got, data)
	}
}

func TestReadUntouchedIsZero(t *testing.T) {
	s := NewSpace(DefaultBase)
	buf := []byte{1, 2, 3, 4}
	s.Read(0x999000, buf)
	for i, b := range buf {
		if b != 0 {
			t.Errorf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestCrossPageAccess(t *testing.T) {
	s := NewSpace(DefaultBase)
	// Straddle a page boundary.
	addr := uint64(2*PageSize - 8)
	data := make([]byte, 16)
	for i := range data {
		data[i] = byte(i + 1)
	}
	s.Write(addr, data)
	got := make([]byte, 16)
	s.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Errorf("cross-page round trip failed: %v vs %v", got, data)
	}
	if n := len(s.Materialized()); n != 2 {
		t.Errorf("%d pages materialized, want 2", n)
	}
}

func TestU64RoundTrip(t *testing.T) {
	s := NewSpace(DefaultBase)
	addr := s.Alloc(8, 8)
	const v = uint64(0xdeadbeefcafebabe)
	s.WriteU64(addr, v)
	if got := s.ReadU64(addr); got != v {
		t.Errorf("got %#x want %#x", got, v)
	}
}

func TestLineRoundTrip(t *testing.T) {
	s := NewSpace(DefaultBase)
	base := s.AllocLines(1)
	line := make([]byte, LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	s.WriteLine(base, line)
	got := make([]byte, LineSize)
	s.Read(LineAddr(base+17), got) // any address in the line
	if !bytes.Equal(got, line) {
		t.Error("line round trip mismatch")
	}
}

func TestWriteLinePanics(t *testing.T) {
	s := NewSpace(DefaultBase)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on misaligned WriteLine")
		}
	}()
	s.WriteLine(3, make([]byte, LineSize))
}

func TestCloneIsDeep(t *testing.T) {
	s := NewSpace(DefaultBase)
	addr := s.Alloc(8, 8)
	s.WriteU64(addr, 42)
	c := s.Clone()
	s.WriteU64(addr, 99)
	if got := c.ReadU64(addr); got != 42 {
		t.Errorf("clone mutated: got %d want 42", got)
	}
	if c.Brk() != s.Brk() {
		t.Error("clone brk mismatch")
	}
}

func TestQuickReadWrite(t *testing.T) {
	s := NewSpace(DefaultBase)
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := DefaultBase + uint64(off%(1<<20))
		s.Write(addr, data)
		got := make([]byte, len(data))
		s.Read(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickAllocDisjoint(t *testing.T) {
	s := NewSpace(DefaultBase)
	type region struct {
		addr uint64
		size int
	}
	var regions []region
	f := func(sz uint8) bool {
		size := int(sz)%128 + 1
		addr := s.Alloc(size, 8)
		for _, r := range regions {
			if addr < r.addr+uint64(r.size) && r.addr < addr+uint64(size) {
				return false // overlap
			}
		}
		regions = append(regions, region{addr, size})
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// WriteLine overwrites the full line at line-aligned address base.
func (s *Space) WriteLine(base uint64, src []byte) {
	if base%LineSize != 0 || len(src) != LineSize {
		panic("mem: WriteLine requires a line-aligned address and 64-byte buffer")
	}
	s.Write(base, src)
}

// TestWritePastCeilingPanics checks that a write at maxAddr panics and
// names the address instead of growing the page table, and that reads
// there still return zeros.
func TestWritePastCeilingPanics(t *testing.T) {
	s := NewSpace(DefaultBase)
	if got := s.ReadU64(maxAddr + 64); got != 0 {
		t.Errorf("read past the ceiling = %#x, want 0", got)
	}
	for _, w := range []struct {
		addr  uint64
		write func(addr uint64)
	}{
		{maxAddr, func(a uint64) { s.WriteU64(a, 1) }},
		{maxAddr + 17, func(a uint64) { s.Write(a, make([]byte, 3)) }},
		{maxAddr + PageSize - 4, func(a uint64) { s.Write(a, make([]byte, 8)) }}, // straddles two pages
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, fmt.Sprintf("%#x", w.addr)) || !strings.Contains(msg, "ceiling") {
					t.Errorf("write at %#x: panic %q does not name the address and the ceiling", w.addr, msg)
				}
			}()
			w.write(w.addr)
		}()
	}
	if n := len(s.pages.S); n != 0 {
		t.Errorf("page table grew to %d entries", n)
	}
}

// TestCopyFrom checks that CopyFrom leaves s with src's contents and
// materialized pages, and s's own allocation cursor.
func TestCopyFrom(t *testing.T) {
	src, dst := NewSpace(DefaultBase), NewSpace(DefaultBase)
	src.WriteU64(DefaultBase, 1)
	src.WriteU64(DefaultBase+3*PageSize, 3) // a page dst lacks
	dst.WriteU64(DefaultBase, 7)
	dst.WriteU64(DefaultBase+8, 8)
	dst.WriteU64(DefaultBase+PageSize, 2) // a page src lacks
	dst.Alloc(100, 1)
	dst.CopyFrom(src)
	for addr, want := range map[uint64]uint64{DefaultBase: 1, DefaultBase + 8: 0, DefaultBase + PageSize: 0, DefaultBase + 3*PageSize: 3} {
		if got := dst.ReadU64(addr); got != want {
			t.Errorf("ReadU64(%#x) = %d, want %d", addr, got, want)
		}
	}
	if n := len(dst.Materialized()); n != 2 {
		t.Errorf("%d pages materialized, want src's 2", n)
	}
	if dst.Brk() != DefaultBase+100 {
		t.Errorf("brk = %#x, want dst's own %#x", dst.Brk(), DefaultBase+100)
	}
	src.WriteU64(DefaultBase, 9)
	if dst.ReadU64(DefaultBase) != 1 {
		t.Error("CopyFrom shares a page with its source")
	}
}

// TestCloneInto checks that CloneInto leaves dst equal to s, allocation
// cursor included: a page s lacks is dropped from dst even though dst
// wrote it, and dst shares no page with s afterwards.
func TestCloneInto(t *testing.T) {
	src, dst := NewSpace(DefaultBase), NewSpace(DefaultBase)
	src.WriteU64(DefaultBase, 1)
	src.WriteU64(DefaultBase+5*PageSize, 5)
	src.Alloc(300, 1)
	dst.WriteU64(DefaultBase, 7)
	dst.WriteU64(DefaultBase+PageSize, 2) // a page src lacks
	dst.WriteU64(8*PageSize, 3)           // below src's table
	if got := src.CloneInto(dst); got != dst {
		t.Fatal("CloneInto did not return its destination")
	}
	want := src.Clone()
	if got, w := dst.Materialized(), want.Materialized(); !slices.Equal(got, w) {
		t.Errorf("pages %v, want %v", got, w)
	}
	for _, addr := range []uint64{DefaultBase, DefaultBase + PageSize, 8 * PageSize, DefaultBase + 5*PageSize} {
		if got, w := dst.ReadU64(addr), want.ReadU64(addr); got != w {
			t.Errorf("ReadU64(%#x) = %d, want %d", addr, got, w)
		}
	}
	if dst.Brk() != src.Brk() {
		t.Errorf("brk = %#x, want %#x", dst.Brk(), src.Brk())
	}
	src.WriteU64(DefaultBase, 9)
	if dst.ReadU64(DefaultBase) != 1 {
		t.Error("CloneInto shares a page with its source")
	}
}
