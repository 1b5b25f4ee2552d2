package isa

import (
	"strings"
	"testing"
	"unsafe"
)

// TestInstrSize pins the instruction's layout: the simulator copies one
// per fetched instruction, and field order decides its padding.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Instr{}) = %d, want 24", got)
	}
}

// TestChainRecordLinks checks a chain record against the links it stands
// for, and that every tail expands to the matching suffix.
func TestChainRecordLinks(t *testing.T) {
	rec := Instr{Op: Chain, Addr: 5, Dst: 10, Src1: 3}
	if rec.Links() != 5 || (Instr{Op: Load}).Links() != 1 {
		t.Fatalf("Links: record %d, load %d", rec.Links(), (Instr{Op: Load}).Links())
	}
	want := []Instr{
		{Op: ALU, Dst: 10, Src1: 3},
		{Op: ALU, Dst: 11, Src1: 10},
		{Op: ALU, Dst: 12, Src1: 11},
		{Op: ALU, Dst: 13, Src1: 12},
		{Op: ALU, Dst: 14, Src1: 13},
	}
	for i := range want {
		tail := rec.Tail(i)
		if tail.Links() != len(want)-i {
			t.Fatalf("Tail(%d) covers %d links, want %d", i, tail.Links(), len(want)-i)
		}
		for j := 0; j < tail.Links(); j++ {
			if got := tail.Link(j); got != want[i+j] {
				t.Fatalf("Tail(%d).Link(%d) = %+v, want %+v", i, j, got, want[i+j])
			}
			if err := tail.Link(j).Validate(); err != nil {
				t.Fatalf("link %d: %v", i+j, err)
			}
		}
	}
}

func TestOpStrings(t *testing.T) {
	want := map[Op]string{
		ALU: "alu", Load: "ld", Store: "st", Clwb: "clwb",
		Clflushopt: "clflushopt", Clflush: "clflush",
		Pcommit: "pcommit", Sfence: "sfence", Mfence: "mfence",
	}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", op, op.String(), s)
		}
	}
	if got := Op(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown op string = %q", got)
	}
}

func TestOpClassifiers(t *testing.T) {
	type c struct {
		mem, pmem bool
	}
	want := map[Op]c{
		ALU:        {},
		Load:       {mem: true},
		Store:      {mem: true},
		Clwb:       {pmem: true},
		Clflushopt: {pmem: true},
		Clflush:    {pmem: true},
		Pcommit:    {pmem: true},
		Sfence:     {},
		Mfence:     {},
	}
	for op, w := range want {
		if op.IsMemAccess() != w.mem {
			t.Errorf("%v.IsMemAccess() = %v", op, op.IsMemAccess())
		}
		if op.IsPMEM() != w.pmem {
			t.Errorf("%v.IsPMEM() = %v", op, op.IsPMEM())
		}
	}
}

func TestValidate(t *testing.T) {
	valid := []Instr{
		{Op: ALU, Dst: 1},
		{Op: ALU, Dst: 2, Src1: 1, Src2: 1, Lat: 3},
		{Op: Load, Dst: 1, Addr: 0x100, Size: 8},
		{Op: Store, Addr: 0x100, Size: 1, Src1: 1},
		{Op: Clwb, Addr: 0x100},
		{Op: Clflushopt, Addr: 0x140},
		{Op: Clflush, Addr: 0x180},
		{Op: Pcommit},
		{Op: Sfence},
		{Op: Mfence},
	}
	for _, in := range valid {
		if err := in.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", in, err)
		}
	}
	invalid := []Instr{
		{Op: Load, Addr: 0x100, Size: 8},           // no dst
		{Op: Load, Dst: 1, Addr: 0x100, Size: 0},   // zero size
		{Op: Load, Dst: 1, Addr: 0x100, Size: 16},  // oversize
		{Op: Store, Addr: 0x100, Size: 9, Src1: 1}, // oversize
		{Op: Store, Addr: 0x100, Size: 8, Dst: 1},  // store writes reg
		{Op: ALU},                        // no dst
		{Op: Clwb, Addr: 0x100, Src1: 1}, // flush with operand
		{Op: Pcommit, Addr: 4},           // pcommit with addr
		{Op: Sfence, Dst: 1},             // fence with dst
		{Op: Op(99)},                     // unknown
		{Op: Chain, Dst: 1, Addr: 4},     // a record, not an instruction
	}
	for _, in := range invalid {
		if err := in.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", in)
		}
	}
}

func TestInstrString(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: Load, Dst: 3, Addr: 0x40, Size: 8, Src2: 2}, "ld r3"},
		{Instr{Op: Store, Addr: 0x40, Size: 8, Src1: 1}, "st ["},
		{Instr{Op: Clwb, Addr: 0x40}, "clwb"},
		{Instr{Op: Pcommit}, "pcommit"},
		{Instr{Op: ALU, Dst: 5, Src1: 1}, "alu r5"},
	}
	for _, c := range cases {
		if got := c.in.String(); !strings.Contains(got, c.want) {
			t.Errorf("String() = %q, want substring %q", got, c.want)
		}
	}
}
