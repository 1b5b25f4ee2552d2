// Package trace carries dynamic instruction streams from the workload layer
// to the timing simulator.
//
// The data-structure code executes functionally against simulated memory
// and, through a Builder, emits one isa.Instr per architectural event: a
// load per memory read, a store per 8-byte memory write, ALU operations for
// key comparisons and address arithmetic, and the PMEM persistence
// instructions. Dependences are expressed through single-assignment virtual
// registers allocated by the Builder, so pointer-chasing chains in the
// trace serialize in the out-of-order core exactly as they would in
// compiled code.
package trace

import (
	"fmt"
	"math"
	"sort"

	"specpersist/internal/isa"
)

// Sink receives emitted instructions.
type Sink interface {
	Emit(isa.Instr)
}

// Source supplies instructions to the simulator. Next returns false when
// the stream is exhausted.
type Source interface {
	Next() (isa.Instr, bool)
}

// BlockSource is the batched bulk-read path of a Source. NextBlock returns
// the next run of records in stream order — instructions, and isa.Chain
// records standing for their links (Buffer's preamble chains); an empty
// slice means the stream is exhausted. The returned slice is only valid
// until the next NextBlock, Next, Seek, Rewind or Reset call on the
// source — block sources hand out views of an internal, reusable slab, so
// the simulator consumes instructions without a per-instruction interface
// call and without the source allocating per read. Mixing Next and
// NextBlock is allowed; both consume from the same position.
type BlockSource interface {
	Source
	NextBlock() []isa.Instr
}

// Seeker is the random-access capability of a trace source, measured in
// absolute instruction indices (0 = first instruction of the stream).
//
// This is the rollback-replay contract speculative execution depends on:
// the CPU records the stream position of every checkpointed barrier, and on
// a speculation abort calls Seek with the oldest checkpoint's position. The
// source must then replay the exact same instruction sequence from that
// index that it produced the first time — byte-identical opcodes, addresses
// and registers — because the commit-stream equivalence argument (§4.2.2)
// counts on every squashed effect re-executing exactly once. A source that
// regenerates instructions on the fly (rather than buffering them) can only
// implement Seeker if its generation is deterministic and restartable at
// arbitrary indices.
type Seeker interface {
	Seek(pos uint64)
}

// Rewinder restarts a source from its beginning, equivalent to Seek(0) but
// implementable by streams that can only restart, not random-access.
type Rewinder interface {
	Rewind()
}

// Compile-time contract assertions: the in-memory buffer and the file
// reader are the two sources the CPU model's rollback path relies on.
var (
	_ BlockSource = (*Buffer)(nil)
	_ Seeker      = (*Buffer)(nil)
	_ Rewinder    = (*Buffer)(nil)
	_ BlockSource = (*Reader)(nil)
	_ Seeker      = (*Reader)(nil)
	_ Rewinder    = (*Reader)(nil)
)

// Buffer is an in-memory instruction stream; it implements both Sink and
// Source. The zero value is an empty, usable buffer.
//
// A Buffer stores records: an instruction, or an isa.Chain record that
// Builder.Chain appends for a whole preamble chain. Positions (Len, Seek)
// count instructions, so a chain record covers as many positions as it
// has links. Next and Instrs hand out instructions; NextBlock hands out
// the records themselves, and the CPU model expands them as it fetches.
type Buffer struct {
	recs   []isa.Instr
	chains []chainAt // every chain record, in stream order
	n      int       // instruction positions covered
	pos    int       // next record
	sub    int       // links of recs[pos] already read (chain records)
	part   [1]isa.Instr
}

// chainAt places one chain record: its index in recs and the stream
// position of its first link.
type chainAt struct {
	rec int
	at  int
}

// Emit appends an instruction, or a chain record.
func (b *Buffer) Emit(in isa.Instr) {
	if in.Op == isa.Chain {
		b.emitChain(in)
		return
	}
	b.recs = append(b.recs, in)
	b.n++
}

func (b *Buffer) emitChain(rec isa.Instr) {
	b.chains = append(b.chains, chainAt{rec: len(b.recs), at: b.n})
	b.recs = append(b.recs, rec)
	b.n += rec.Links()
}

// Next returns the next unread instruction, expanding chain records.
func (b *Buffer) Next() (isa.Instr, bool) {
	if b.pos >= len(b.recs) {
		return isa.Instr{}, false
	}
	in := b.recs[b.pos]
	if in.Op != isa.Chain {
		b.pos++
		return in, true
	}
	l := in.Link(b.sub)
	if b.sub++; b.sub == in.Links() {
		b.pos, b.sub = b.pos+1, 0
	}
	return l, true
}

// NextBlock returns every unread record as one block and marks them
// consumed. The slice aliases the buffer's storage: it stays valid until
// the buffer is next written to (Emit/Reset), per the BlockSource
// contract. After a Seek into the middle of a chain record, the block is
// that record's unread tail alone.
func (b *Buffer) NextBlock() []isa.Instr {
	if b.sub > 0 {
		b.part[0] = b.recs[b.pos].Tail(b.sub)
		b.pos, b.sub = b.pos+1, 0
		return b.part[:]
	}
	blk := b.recs[b.pos:]
	b.pos = len(b.recs)
	return blk
}

// Len reports the total number of instructions emitted.
func (b *Buffer) Len() int { return b.n }

// Rewind restarts reading from the beginning.
func (b *Buffer) Rewind() { b.pos, b.sub = 0, 0 }

// Seek moves the read position to an absolute instruction index. The CPU
// model uses this to restart execution from a checkpoint after a
// speculation abort.
func (b *Buffer) Seek(pos uint64) {
	if pos > uint64(b.n) {
		panic("trace: seek past end of buffer")
	}
	p := int(pos)
	// Every record between two chain records covers one position.
	j := sort.Search(len(b.chains), func(j int) bool { return b.chains[j].at > p }) - 1
	if j < 0 {
		b.pos, b.sub = p, 0
		return
	}
	c := b.chains[j]
	off, n := p-c.at, b.recs[c.rec].Links()
	if off < n {
		b.pos, b.sub = c.rec, off
	} else {
		b.pos, b.sub = c.rec+1+off-n, 0
	}
}

// Reset discards all contents.
func (b *Buffer) Reset() {
	b.recs, b.chains = b.recs[:0], b.chains[:0]
	b.n, b.pos, b.sub = 0, 0, 0
}

// Instrs returns the whole stream, chain records expanded (read-only use;
// it aliases the buffer's storage when the buffer holds no chain record).
func (b *Buffer) Instrs() []isa.Instr {
	if len(b.chains) == 0 {
		return b.recs
	}
	out := make([]isa.Instr, 0, b.n)
	for _, in := range b.recs {
		if in.Op != isa.Chain {
			out = append(out, in)
			continue
		}
		for i := 0; i < in.Links(); i++ {
			out = append(out, in.Link(i))
		}
	}
	return out
}

// FuncSource adapts a function to the Source interface.
type FuncSource func() (isa.Instr, bool)

// Next calls the wrapped function.
func (f FuncSource) Next() (isa.Instr, bool) { return f() }

// SliceSource returns a Source reading from ins, which holds instructions
// only.
func SliceSource(ins []isa.Instr) Source {
	return &Buffer{recs: ins, n: len(ins)}
}

// CountSink tallies emitted instructions by opcode; useful in tests and for
// the instruction-count figures.
type CountSink struct {
	Counts [16]uint64
	Total  uint64
}

// Emit records the instruction.
func (c *CountSink) Emit(in isa.Instr) {
	c.Counts[in.Op]++
	c.Total++
}

// Count returns the tally for one opcode.
func (c *CountSink) Count(op isa.Op) uint64 { return c.Counts[op] }

// Tee duplicates a stream into multiple sinks.
type Tee []Sink

// Emit forwards to every sink.
func (t Tee) Emit(in isa.Instr) {
	for _, s := range t {
		s.Emit(in)
	}
}

// Validator wraps a Sink and panics on malformed streams: invalid
// instructions, registers read before being written, or registers written
// twice (the builder's registers are single-assignment).
type Validator struct {
	Inner   Sink
	written map[isa.Reg]bool
	n       int
}

// NewValidator returns a Validator forwarding to inner (which may be nil to
// validate only).
func NewValidator(inner Sink) *Validator {
	return &Validator{Inner: inner, written: make(map[isa.Reg]bool)}
}

// Emit validates then forwards.
func (v *Validator) Emit(in isa.Instr) {
	if err := in.Validate(); err != nil {
		panic(fmt.Sprintf("trace: instr %d: %v", v.n, err))
	}
	for _, src := range []isa.Reg{in.Src1, in.Src2} {
		if src != isa.NoReg && !v.written[src] {
			panic(fmt.Sprintf("trace: instr %d (%v) reads r%d before any write", v.n, in, src))
		}
	}
	if in.Dst != isa.NoReg {
		if v.written[in.Dst] {
			panic(fmt.Sprintf("trace: instr %d (%v) rewrites r%d", v.n, in, in.Dst))
		}
		v.written[in.Dst] = true
	}
	v.n++
	if v.Inner != nil {
		v.Inner.Emit(in)
	}
}

// Builder allocates virtual registers and emits well-formed instructions.
// A nil *Builder is valid and emits nothing: the workload layer uses a nil
// builder during fast-forward (functional-only) execution.
type Builder struct {
	sink    Sink
	buf     *Buffer // sink, when it is a Buffer: appended to directly
	nextReg isa.Reg
}

// NewBuilder returns a Builder emitting into sink.
func NewBuilder(sink Sink) *Builder {
	buf, _ := sink.(*Buffer)
	return &Builder{sink: sink, buf: buf, nextReg: 1}
}

// emit hands one instruction to the sink, without an interface call when
// the sink is a Buffer (the workload's hot emit path).
func (b *Builder) emit(in isa.Instr) {
	if b.buf != nil {
		b.buf.Emit(in)
		return
	}
	b.sink.Emit(in)
}

// Enabled reports whether the builder actually emits.
func (b *Builder) Enabled() bool { return b != nil }

func (b *Builder) alloc() isa.Reg {
	r := b.nextReg
	b.nextReg++
	return r
}

// Load emits a load of size bytes at addr whose address depends on addrDep,
// returning the produced register.
func (b *Builder) Load(addr uint64, size int, addrDep isa.Reg) isa.Reg {
	if b == nil {
		return isa.NoReg
	}
	dst := b.alloc()
	b.emit(isa.Instr{Op: isa.Load, Addr: addr, Size: uint8(size), Dst: dst, Src2: addrDep})
	return dst
}

// Store emits a store of size bytes at addr. dataDep is the register
// holding the stored value; addrDep the address dependence.
func (b *Builder) Store(addr uint64, size int, dataDep, addrDep isa.Reg) {
	if b == nil {
		return
	}
	b.emit(isa.Instr{Op: isa.Store, Addr: addr, Size: uint8(size), Src1: dataDep, Src2: addrDep})
}

// ALU emits a compute chain consuming all deps (two per instruction) with
// per-instruction latency lat (0 = default) and returns the result register.
// lat must fit the instruction's 8-bit latency field: a value outside
// [0, 255] panics rather than wrapping to a different latency.
func (b *Builder) ALU(lat int, deps ...isa.Reg) isa.Reg {
	if b == nil {
		return isa.NoReg
	}
	if lat < 0 || lat > math.MaxUint8 {
		panic(fmt.Sprintf("trace: ALU latency %d outside [0, 255]", lat))
	}
	// Pick the first two present operands in place: this runs once per
	// emitted ALU op (the hottest emit path), so it must not materialize a
	// filtered slice.
	var s1, s2 isa.Reg
	n, i := 0, 0
	for ; i < len(deps) && n < 2; i++ {
		if deps[i] == isa.NoReg {
			continue
		}
		if n == 0 {
			s1 = deps[i]
		} else {
			s2 = deps[i]
		}
		n++
	}
	dst := b.alloc()
	b.emit(isa.Instr{Op: isa.ALU, Dst: dst, Src1: s1, Src2: s2, Lat: uint8(lat)})
	// Fold any remaining operands into a dependence chain.
	for ; i < len(deps); i++ {
		if deps[i] == isa.NoReg {
			continue
		}
		next := b.alloc()
		b.emit(isa.Instr{Op: isa.ALU, Dst: next, Src1: dst, Src2: deps[i], Lat: uint8(lat)})
		dst = next
	}
	return dst
}

// Chain emits n dependent default-latency ALU instructions — the serial
// application preamble the workloads put before each operation — and
// returns the last one's register: the first link has no source, and link
// i reads link i-1. It emits exactly what ALU(0) followed by n-1 calls of
// ALU(0, previous) would. A Buffer sink receives them as one isa.Chain
// record; any other sink receives each link. Chain(0) emits nothing and
// returns NoReg.
func (b *Builder) Chain(n int) isa.Reg {
	if b == nil || n <= 0 {
		return isa.NoReg
	}
	rec := isa.Instr{Op: isa.Chain, Addr: uint64(n), Dst: b.nextReg}
	b.nextReg += isa.Reg(n)
	if b.buf != nil {
		b.buf.emitChain(rec)
		return b.nextReg - 1
	}
	for i := 0; i < n; i++ {
		b.emit(rec.Link(i))
	}
	return b.nextReg - 1
}

// Clwb emits a clwb of the line containing addr.
func (b *Builder) Clwb(addr uint64) {
	if b == nil {
		return
	}
	b.emit(isa.Instr{Op: isa.Clwb, Addr: addr})
}

// Clflushopt emits a clflushopt of the line containing addr.
func (b *Builder) Clflushopt(addr uint64) {
	if b == nil {
		return
	}
	b.emit(isa.Instr{Op: isa.Clflushopt, Addr: addr})
}

// Pcommit emits a pcommit.
func (b *Builder) Pcommit() {
	if b == nil {
		return
	}
	b.emit(isa.Instr{Op: isa.Pcommit})
}

// Sfence emits an sfence.
func (b *Builder) Sfence() {
	if b == nil {
		return
	}
	b.emit(isa.Instr{Op: isa.Sfence})
}

// Mfence emits an mfence.
func (b *Builder) Mfence() {
	if b == nil {
		return
	}
	b.emit(isa.Instr{Op: isa.Mfence})
}

// RegCount reports how many registers have been allocated.
func (b *Builder) RegCount() int {
	if b == nil {
		return 0
	}
	return int(b.nextReg) - 1
}
