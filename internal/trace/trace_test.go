package trace

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"specpersist/internal/isa"
)

func TestBufferRoundTrip(t *testing.T) {
	var b Buffer
	b.Emit(isa.Instr{Op: isa.Sfence})
	b.Emit(isa.Instr{Op: isa.Pcommit})
	if b.Len() != 2 || len(b.recs)-b.pos != 2 {
		t.Fatalf("Len=%d unread=%d", b.Len(), len(b.recs)-b.pos)
	}
	in, ok := b.Next()
	if !ok || in.Op != isa.Sfence {
		t.Fatalf("first = %v, %v", in, ok)
	}
	in, ok = b.Next()
	if !ok || in.Op != isa.Pcommit {
		t.Fatalf("second = %v, %v", in, ok)
	}
	if _, ok := b.Next(); ok {
		t.Fatal("expected exhausted stream")
	}
	b.Rewind()
	if len(b.recs)-b.pos != 2 {
		t.Fatal("Rewind did not restore position")
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// TestBufferChainRecords checks a buffer holding chain records against
// the same stream emitted one instruction at a time: Len, Instrs, and from
// every Seek position both Next and NextBlock (its records expanded) must
// give the expanded stream's suffix.
func TestBufferChainRecords(t *testing.T) {
	emit := func(sink Sink) {
		b := NewBuilder(sink)
		b.Chain(3)
		r := b.Load(0x40, 8, isa.NoReg)
		b.Chain(1)
		b.Chain(5)
		b.Store(0x40, 8, b.ALU(0, r), isa.NoReg)
		b.Chain(4)
	}
	var recs, flat Buffer
	emit(&recs)
	emit(NewValidator(&flat))
	want := flat.Instrs()
	if recs.Len() != len(want) || len(recs.recs) != 7 {
		t.Fatalf("Len %d over %d records, want %d over 7", recs.Len(), len(recs.recs), len(want))
	}
	if !slices.Equal(recs.Instrs(), want) {
		t.Fatal("Instrs differs from the expanded stream")
	}
	for p := 0; p <= len(want); p++ {
		recs.Seek(uint64(p))
		var got []isa.Instr
		for in, ok := recs.Next(); ok; in, ok = recs.Next() {
			got = append(got, in)
		}
		if !slices.Equal(got, want[p:]) {
			t.Fatalf("Seek(%d) then Next: %v, want %v", p, got, want[p:])
		}
		recs.Seek(uint64(p))
		got = got[:0]
		for blk := recs.NextBlock(); len(blk) > 0; blk = recs.NextBlock() {
			for _, rec := range blk {
				for i := 0; i < rec.Links(); i++ {
					if rec.Op == isa.Chain {
						got = append(got, rec.Link(i))
					} else {
						got = append(got, rec)
					}
				}
			}
		}
		if !slices.Equal(got, want[p:]) {
			t.Fatalf("Seek(%d) then NextBlock: %v, want %v", p, got, want[p:])
		}
	}
}

func TestFuncSource(t *testing.T) {
	n := 0
	src := FuncSource(func() (isa.Instr, bool) {
		if n >= 3 {
			return isa.Instr{}, false
		}
		n++
		return isa.Instr{Op: isa.ALU, Dst: isa.Reg(n)}, true
	})
	count := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		count++
	}
	if count != 3 {
		t.Errorf("drained %d instrs, want 3", count)
	}
}

func TestSliceSource(t *testing.T) {
	src := SliceSource([]isa.Instr{{Op: isa.Sfence}, {Op: isa.Mfence}})
	in, ok := src.Next()
	if !ok || in.Op != isa.Sfence {
		t.Fatal("bad first")
	}
	if _, ok = src.Next(); !ok {
		t.Fatal("bad second")
	}
	if _, ok = src.Next(); ok {
		t.Fatal("should be drained")
	}
}

func TestCountSink(t *testing.T) {
	var c CountSink
	c.Emit(isa.Instr{Op: isa.Load})
	c.Emit(isa.Instr{Op: isa.Load})
	c.Emit(isa.Instr{Op: isa.Pcommit})
	if c.Count(isa.Load) != 2 || c.Count(isa.Pcommit) != 1 || c.Total != 3 {
		t.Errorf("counts wrong: %+v", c)
	}
}

func TestTee(t *testing.T) {
	var a, b CountSink
	tee := Tee{&a, &b}
	tee.Emit(isa.Instr{Op: isa.Sfence})
	if a.Total != 1 || b.Total != 1 {
		t.Error("Tee did not duplicate")
	}
}

func TestBuilderEmitsValidStream(t *testing.T) {
	var buf Buffer
	b := NewBuilder(NewValidator(&buf))
	r1 := b.Load(0x1000, 8, isa.NoReg)
	r2 := b.ALU(0, r1)
	b.Store(0x1040, 8, r2, r1)
	b.Clwb(0x1040)
	b.Sfence()
	b.Pcommit()
	b.Sfence()
	if buf.Len() != 7 {
		t.Fatalf("emitted %d instrs, want 7", buf.Len())
	}
	if r1 == isa.NoReg || r2 == isa.NoReg || r1 == r2 {
		t.Errorf("bad register allocation: r1=%d r2=%d", r1, r2)
	}
}

func TestBuilderALUChain(t *testing.T) {
	var buf Buffer
	b := NewBuilder(&buf)
	r1, r2, r3, r4 := b.ALU(0), b.ALU(0), b.ALU(0), b.ALU(0)
	out := b.ALU(0, r1, r2, r3, r4)
	// 4 producers + chain of 3 ALU ops to fold 4 deps.
	if buf.Len() != 7 {
		t.Fatalf("len = %d, want 7", buf.Len())
	}
	if out == isa.NoReg {
		t.Fatal("chain result missing")
	}
	// Validate the whole stream.
	v := NewValidator(nil)
	for _, in := range buf.Instrs() {
		v.Emit(in)
	}
}

// TestBuilderChainMatchesLoop: Chain(n) emits exactly the hand-written
// preamble loop it replaced, through a Buffer (the bulk path) and through
// any other sink, and leaves the builder's register allocation in step.
func TestBuilderChainMatchesLoop(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 1600} {
		var want Buffer
		wb := NewBuilder(&want)
		wb.Load(0x40, 8, isa.NoReg) // a non-empty prefix: links start past r1
		wantReg := isa.NoReg
		if n > 0 {
			wantReg = wb.ALU(0)
			for i := 1; i < n; i++ {
				wantReg = wb.ALU(0, wantReg)
			}
		}
		wantNext := wb.ALU(0)

		var bulk, viaSink Buffer
		for _, sink := range []Sink{&bulk, NewValidator(&viaSink)} {
			b := NewBuilder(sink)
			b.Load(0x40, 8, isa.NoReg)
			if got := b.Chain(n); got != wantReg {
				t.Errorf("Chain(%d) returned r%d, want r%d", n, got, wantReg)
			}
			if got := b.ALU(0); got != wantNext {
				t.Errorf("Chain(%d): next register r%d, want r%d", n, got, wantNext)
			}
		}
		for _, got := range []*Buffer{&bulk, &viaSink} {
			if !slices.Equal(got.Instrs(), want.Instrs()) {
				t.Errorf("Chain(%d) emitted %d instrs that differ from the loop's %d", n, got.Len(), want.Len())
			}
		}
	}
	var nb *Builder
	if nb.Chain(5) != isa.NoReg {
		t.Error("nil Chain returned a register")
	}
}

// TestBuilderALULatencyRange: a latency that does not fit the 8-bit field
// panics with the value instead of silently wrapping (256 would run as the
// 1-cycle default).
func TestBuilderALULatencyRange(t *testing.T) {
	var buf Buffer
	b := NewBuilder(&buf)
	b.ALU(255)
	if got := buf.Instrs()[0].Lat; got != 255 {
		t.Fatalf("latency 255 stored as %d", got)
	}
	for _, lat := range []int{-1, 256, 1000} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("ALU(%d) did not panic", lat)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, strconv.Itoa(lat)) {
					t.Errorf("ALU(%d) panic %q does not name the value", lat, msg)
				}
			}()
			b.ALU(lat)
		}()
	}
	if buf.Len() != 1 {
		t.Errorf("rejected ALUs emitted instructions: len %d", buf.Len())
	}
}

func TestBuilderFiltersNoReg(t *testing.T) {
	var buf Buffer
	b := NewBuilder(&buf)
	r := b.ALU(0, isa.NoReg, isa.NoReg)
	if r == isa.NoReg {
		t.Fatal("ALU should still produce a register")
	}
	in := buf.Instrs()[0]
	if in.Src1 != isa.NoReg || in.Src2 != isa.NoReg {
		t.Errorf("expected no sources, got %v", in)
	}
}

func TestNilBuilderIsNoop(t *testing.T) {
	var b *Builder
	if b.Enabled() {
		t.Fatal("nil builder reports enabled")
	}
	if r := b.Load(0x100, 8, isa.NoReg); r != isa.NoReg {
		t.Error("nil Load returned a register")
	}
	if r := b.ALU(0, 1, 2); r != isa.NoReg {
		t.Error("nil ALU returned a register")
	}
	b.Store(0x100, 8, 1, 2)
	b.Clwb(0x100)
	b.Clflushopt(0x100)
	b.Pcommit()
	b.Sfence()
	b.Mfence()
	if b.RegCount() != 0 {
		t.Error("nil RegCount != 0")
	}
}

func TestValidatorCatchesUseBeforeDef(t *testing.T) {
	v := NewValidator(nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on use-before-def")
		}
	}()
	v.Emit(isa.Instr{Op: isa.ALU, Dst: 2, Src1: 1})
}

func TestValidatorCatchesDoubleWrite(t *testing.T) {
	v := NewValidator(nil)
	v.Emit(isa.Instr{Op: isa.ALU, Dst: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double write")
		}
	}()
	v.Emit(isa.Instr{Op: isa.ALU, Dst: 1})
}

func TestValidatorCatchesInvalidInstr(t *testing.T) {
	v := NewValidator(nil)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on invalid instr")
		}
	}()
	v.Emit(isa.Instr{Op: isa.Load, Size: 8}) // missing Dst
}

// Property: any sequence of builder calls produces a stream that passes the
// validator.
func TestQuickBuilderStreamsValid(t *testing.T) {
	f := func(ops []uint8) bool {
		var buf Buffer
		b := NewBuilder(NewValidator(&buf))
		var regs []isa.Reg
		dep := func(i int) isa.Reg {
			if len(regs) == 0 {
				return isa.NoReg
			}
			return regs[i%len(regs)]
		}
		for i, op := range ops {
			addr := uint64(0x1000 + (int(op)%64)*8)
			switch op % 6 {
			case 0:
				regs = append(regs, b.Load(addr, 8, dep(i)))
			case 1:
				b.Store(addr, 8, dep(i), dep(i+1))
			case 2:
				regs = append(regs, b.ALU(int(op%4), dep(i), dep(i+1)))
			case 3:
				b.Clwb(addr)
			case 4:
				b.Pcommit()
			case 5:
				b.Sfence()
			}
		}
		return true // validator panics on violation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
