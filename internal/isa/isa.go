// Package isa defines the abstract instruction set consumed by the timing
// simulator.
//
// The set mirrors what the paper's MarssX86 extension models: ordinary ALU
// operations, loads and stores with data dependences, and the Intel PMEM
// persistence instructions (clwb, clflushopt, clflush, pcommit) ordered by
// store fences (sfence) or full fences (mfence).
//
// Instructions name their data dependences through virtual registers. A
// register is written exactly once (SSA-style), which lets the out-of-order
// core track readiness with a simple scoreboard without modeling renaming.
package isa

import "fmt"

// Op identifies an instruction kind.
type Op uint8

const (
	// ALU is a register-to-register operation (arithmetic, compare, ...).
	ALU Op = iota
	// Load reads Size bytes at Addr into Dst.
	Load
	// Store writes Size bytes at Addr (data in Src1, address dep in Src2).
	Store
	// Clwb writes back the dirty cache line containing Addr without
	// evicting it. Ordered only by fences and older stores to the same
	// line.
	Clwb
	// Clflushopt writes back and evicts the line containing Addr.
	Clflushopt
	// Clflush is the legacy serializing flush. The paper does not use it
	// in workloads (it performs much worse) but the simulator models it.
	Clflush
	// Pcommit forces the memory controller to drain its write-pending
	// queue to NVMM; it completes when every controller acknowledges.
	Pcommit
	// Sfence orders stores and pending PMEM instructions: it retires only
	// once all older stores and PMEM operations are globally visible.
	Sfence
	// Mfence is a full fence (orders loads as well).
	Mfence

	numOps

	// Chain is a trace record, not an instruction: it stands for Addr
	// dependent default-latency ALU links, where link i writes Dst+i and
	// reads Dst+i-1 (link 0 reads Src1). An in-memory trace stores the
	// workload preamble this way; everything that reads a stream one
	// instruction at a time sees the links (Link), and Validate rejects
	// the record itself.
	Chain = numOps
)

var opNames = [numOps + 1]string{
	ALU: "alu", Load: "ld", Store: "st", Clwb: "clwb",
	Clflushopt: "clflushopt", Clflush: "clflush",
	Pcommit: "pcommit", Sfence: "sfence", Mfence: "mfence",
	Chain: "chain",
}

// String returns the mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsMemAccess reports whether the op reads or writes data memory (loads and
// stores; PMEM ops operate on cache state, not program data).
func (o Op) IsMemAccess() bool { return o == Load || o == Store }

// IsPMEM reports whether the op is one of the persistence instructions
// (the instructions that cannot be executed speculatively, §4.1).
func (o Op) IsPMEM() bool {
	return o == Clwb || o == Clflushopt || o == Clflush || o == Pcommit
}

// Reg is a virtual register. Reg 0 is "no register" / no dependence.
type Reg uint32

// NoReg is the absent-operand marker.
const NoReg Reg = 0

// Instr is one dynamic instruction in a trace. The fields are ordered by
// size, so an Instr is 24 bytes: the simulator copies one per fetched
// instruction.
type Instr struct {
	Addr uint64 // effective address for Load/Store/Clwb/Clflushopt/Clflush
	Dst  Reg    // register produced (Load, ALU); NoReg otherwise
	Src1 Reg    // first source dependence (data for stores)
	Src2 Reg    // second source dependence (address for loads/stores)
	Op   Op
	Size uint8 // access size in bytes for Load/Store (1..8)
	Lat  uint8 // execution latency for ALU ops; 0 means default (1 cycle)
}

// Links reports how many stream positions in covers: Addr for a Chain
// record, 1 for an instruction.
func (in Instr) Links() int {
	if in.Op == Chain {
		return int(in.Addr)
	}
	return 1
}

// Link returns link i (0 <= i < Links()) of Chain record in: the ALU
// instruction at that position of the stream.
func (in Instr) Link(i int) Instr {
	src := in.Src1
	if i > 0 {
		src = in.Dst + Reg(i) - 1
	}
	return Instr{Op: ALU, Dst: in.Dst + Reg(i), Src1: src}
}

// Tail returns the Chain record for links i.. of Chain record in.
func (in Instr) Tail(i int) Instr {
	l := in.Link(i)
	return Instr{Op: Chain, Addr: in.Addr - uint64(i), Dst: l.Dst, Src1: l.Src1}
}

// String renders the instruction for debugging.
func (in Instr) String() string {
	switch in.Op {
	case ALU:
		return fmt.Sprintf("alu r%d <- r%d, r%d", in.Dst, in.Src1, in.Src2)
	case Load:
		return fmt.Sprintf("ld r%d <- [%#x]%d (addr r%d)", in.Dst, in.Addr, in.Size, in.Src2)
	case Store:
		return fmt.Sprintf("st [%#x]%d <- r%d (addr r%d)", in.Addr, in.Size, in.Src1, in.Src2)
	case Clwb, Clflushopt, Clflush:
		return fmt.Sprintf("%s [%#x]", in.Op, in.Addr)
	case Chain:
		return fmt.Sprintf("chain %d: r%d.. <- r%d", in.Addr, in.Dst, in.Src1)
	default:
		return in.Op.String()
	}
}

// Validate checks internal consistency; the trace builder uses it in tests.
func (in Instr) Validate() error {
	switch in.Op {
	case Load:
		if in.Dst == NoReg {
			return fmt.Errorf("isa: load without destination: %v", in)
		}
		if in.Size == 0 || in.Size > 8 {
			return fmt.Errorf("isa: load size %d out of range", in.Size)
		}
	case Store:
		if in.Size == 0 || in.Size > 8 {
			return fmt.Errorf("isa: store size %d out of range", in.Size)
		}
		if in.Dst != NoReg {
			return fmt.Errorf("isa: store must not write a register: %v", in)
		}
	case ALU:
		if in.Dst == NoReg {
			return fmt.Errorf("isa: alu without destination: %v", in)
		}
	case Clwb, Clflushopt, Clflush:
		if in.Dst != NoReg || in.Src1 != NoReg || in.Src2 != NoReg {
			return fmt.Errorf("isa: flush ops carry no register operands: %v", in)
		}
	case Pcommit, Sfence, Mfence:
		if in.Dst != NoReg || in.Src1 != NoReg || in.Src2 != NoReg || in.Addr != 0 {
			return fmt.Errorf("isa: %s carries no operands", in.Op)
		}
	case Chain:
		return fmt.Errorf("isa: a chain record is not an instruction: %v", in)
	default:
		return fmt.Errorf("isa: unknown opcode %d", in.Op)
	}
	return nil
}
