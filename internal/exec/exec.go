// Package exec couples the functional persistence model (internal/pmem)
// with trace emission (internal/trace). Data-structure and transaction code
// performs every memory access through an Env, which (a) applies the access
// to simulated memory and (b) emits the corresponding instruction(s) with
// true data dependences into the trace consumed by the timing simulator.
//
// Env also implements the paper's benchmark variants (§6.1):
//
//	Log       — undo-logging code runs, but PMEM instructions and fences
//	            are elided (nothing ever becomes durable).
//	LogP      — clwb/clflushopt/pcommit execute, but sfences are elided,
//	            so persists are unordered.
//	Full      — the complete, failure-safe Log+P+Sf code.
//
// For LogP, an optional ordering adversary models the hardware reordering
// the missing fences would permit: a clwb not ordered before a pcommit may
// complete after it, leaving its line in the WPQ (hence non-durable) when
// the "commit" was supposedly made durable. This is what makes the
// crash-injection tests demonstrate, rather than assert, that the fences
// are required for recoverability.
package exec

import (
	"math/rand"

	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/pmem"
	"specpersist/internal/trace"
)

// Level selects which persistence instructions a variant executes.
type Level int

const (
	// LevelLog elides all PMEM instructions and fences.
	LevelLog Level = iota
	// LevelLogP executes PMEM instructions but elides fences.
	LevelLogP
	// LevelFull executes the complete instruction sequence.
	LevelFull
)

// String names the level using the paper's bar labels.
func (l Level) String() string {
	switch l {
	case LevelLog:
		return "Log"
	case LevelLogP:
		return "Log+P"
	case LevelFull:
		return "Log+P+Sf"
	default:
		return "invalid"
	}
}

// Env is the execution environment for persistent data structures.
type Env struct {
	M     *pmem.Model
	B     *trace.Builder // nil during fast-forward (functional-only) runs
	Level Level

	// Reorder, when non-nil and Level==LevelLogP, enables the ordering
	// adversary for unfenced persist sequences. Install it with
	// SeedReorder when the env will be forked.
	Reorder    *rand.Rand
	reorderSrc *countingSource // Reorder's source when set by SeedReorder

	// Hook, when non-nil, runs before every state-changing operation
	// (stores, flushes, commits, fences). Crash-injection tests use it to
	// panic out of a data-structure operation at a chosen event index.
	Hook func()

	pendingClwb []uint64 // clwbs not yet ordered (adversary mode)

	// Group-commit support (internal/service): while coalescing is on,
	// PersistBarrier defers its sfence–pcommit–sfence trio instead of
	// emitting it, and FlushBarriers later closes the batch with a single
	// real trio. Writes and flushes are unaffected — only the ordering
	// points amortize, which is exactly the loose-ordering lever the
	// service layer measures against speculation.
	coalesce      bool
	deferredTrios uint64 // barriers elided since coalescing was enabled
	pendingTrio   bool   // a deferred barrier awaits the next FlushBarriers
}

// hook invokes the injection hook if installed.
func (e *Env) hook() {
	if e.Hook != nil {
		e.Hook()
	}
}

// WithHook installs fn as the event hook and returns a function restoring
// the previous hook. Call the restore function with defer: crash-injection
// hooks abort operations by panicking, and a hook left armed after an early
// return (or an escaped panic) fires inside whatever state-changing
// operation runs next, corrupting an unrelated trial.
//
//	restore := env.WithHook(func() { ... })
//	defer restore()
func (e *Env) WithHook(fn func()) (restore func()) {
	prev := e.Hook
	e.Hook = fn
	return func() { e.Hook = prev }
}

// New returns an Env at LevelFull over a fresh persistence model with no
// trace emission.
func New() *Env {
	return &Env{M: pmem.New(), Level: LevelFull}
}

// SeedReorder installs the Log+P ordering adversary drawing from seed. Its
// source counts the draws taken, which is what lets Fork resume the
// adversary's sequence at the same position.
func (e *Env) SeedReorder(seed int64) {
	e.reorderSrc = newCountingSource(seed)
	e.Reorder = rand.New(e.reorderSrc)
}

// Fork returns an independent copy of the environment: a deep copy of the
// persistence model (pmem.Model.Clone), the level, the adversary's pending
// clwbs and draw position, and the group-commit state. The fork starts
// without a hook. An env emitting a trace cannot be forked (the builder
// would be shared), nor can one whose adversary was installed other than by
// SeedReorder (its position is unknown). It is ForkInto of an empty env.
func (e *Env) Fork() *Env { return e.ForkInto(&Env{}) }

// ForkInto makes dst the fork Fork would return, reusing the persistence
// model (pmem.Model.CloneInto), pending-clwb slice and adversary source dst
// already holds, and returns dst. Nothing of dst's previous run survives.
func (e *Env) ForkInto(dst *Env) *Env {
	if e.B != nil {
		panic("exec: Fork of an env that emits a trace")
	}
	m, pending, src := dst.M, dst.pendingClwb, dst.reorderSrc
	*dst = *e
	if m == nil {
		dst.M = e.M.Clone()
	} else {
		dst.M = e.M.CloneInto(m)
	}
	dst.Hook = nil
	dst.pendingClwb = append(pending[:0], e.pendingClwb...)
	dst.reorderSrc = src
	if e.Reorder != nil {
		if e.reorderSrc == nil {
			panic("exec: Fork needs an adversary installed by SeedReorder")
		}
		dst.reorderSrc = e.reorderSrc.forkInto(src)
		dst.Reorder = rand.New(dst.reorderSrc)
	}
	return dst
}

// countingSource is a math/rand source that counts its draws. A
// *rand.Rand's state cannot be copied, but the standard source advances
// one step per Int63 or Uint64 call, so re-seeding and skipping the
// counted draws reproduces its position exactly.
type countingSource struct {
	seed int64
	n    uint64
	src  rand.Source64
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed, src: rand.NewSource(seed).(rand.Source64)}
}

func (s *countingSource) Int63() int64 {
	s.n++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.n++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.seed, s.n = seed, 0
	s.src.Seed(seed)
}

// forkInto moves dst (a new source when nil) to the position of s and
// returns it.
func (s *countingSource) forkInto(dst *countingSource) *countingSource {
	if dst == nil {
		dst = newCountingSource(s.seed)
	} else {
		dst.Seed(s.seed)
	}
	for dst.n < s.n {
		dst.Uint64()
	}
	return dst
}

// SetBuilder installs (or removes, with nil) the trace builder.
func (e *Env) SetBuilder(b *trace.Builder) { e.B = b }

// Alloc reserves size bytes with the given alignment.
func (e *Env) Alloc(size, align int) uint64 { return e.M.Alloc(size, align) }

// AllocLines reserves n cache lines, line-aligned.
func (e *Env) AllocLines(n int) uint64 { return e.M.AllocLines(n) }

// LoadU64 reads a uint64 at addr, emitting a load whose address depends on
// addrDep. It returns the value and the register holding it.
func (e *Env) LoadU64(addr uint64, addrDep isa.Reg) (uint64, isa.Reg) {
	v := e.M.ReadU64(addr)
	r := e.B.Load(addr, 8, addrDep)
	return v, r
}

// StoreU64 writes v at addr, emitting a store depending on dataDep (the
// value's producer) and addrDep.
func (e *Env) StoreU64(addr uint64, v uint64, dataDep, addrDep isa.Reg) {
	e.hook()
	e.M.WriteU64(addr, v)
	e.B.Store(addr, 8, dataDep, addrDep)
}

// LoadBytesInto reads len(dst) bytes at addr into dst, emitting one load
// per 8-byte chunk, and returns the last chunk's destination register (a
// dependence handle for consumers of the data). A reused scratch buffer
// costs no allocation per call.
func (e *Env) LoadBytesInto(dst []byte, addr uint64, addrDep isa.Reg) isa.Reg {
	n := len(dst)
	e.M.Read(addr, dst)
	var last isa.Reg
	for off := 0; off < n; off += 8 {
		sz := n - off
		if sz > 8 {
			sz = 8
		}
		last = e.B.Load(addr+uint64(off), sz, addrDep)
	}
	return last
}

// StoreBytes writes src at addr, emitting one store per 8-byte chunk.
func (e *Env) StoreBytes(addr uint64, src []byte, dataDep, addrDep isa.Reg) {
	e.hook()
	e.M.Write(addr, src)
	for off := 0; off < len(src); off += 8 {
		sz := len(src) - off
		if sz > 8 {
			sz = 8
		}
		e.B.Store(addr+uint64(off), sz, dataDep, addrDep)
	}
}

// Compute emits a 1-cycle ALU operation consuming deps (key comparison,
// address arithmetic, hash step, ...) and returns its result register.
func (e *Env) Compute(deps ...isa.Reg) isa.Reg { return e.B.ALU(0, deps...) }

// Clwb writes back the line containing addr, subject to the variant level.
func (e *Env) Clwb(addr uint64) {
	e.hook()
	if e.Level < LevelLogP {
		return
	}
	e.B.Clwb(addr)
	if e.Level == LevelLogP && e.Reorder != nil {
		// Unfenced: completion order vs. a later pcommit is undefined.
		e.pendingClwb = append(e.pendingClwb, addr)
		return
	}
	e.M.Clwb(addr)
}

// Clflushopt writes back and evicts the line containing addr.
func (e *Env) Clflushopt(addr uint64) {
	e.hook()
	if e.Level < LevelLogP {
		return
	}
	e.B.Clflushopt(addr)
	if e.Level == LevelLogP && e.Reorder != nil {
		e.pendingClwb = append(e.pendingClwb, addr)
		return
	}
	e.M.Clflushopt(addr)
}

// Pcommit drains the controller WPQ, subject to the variant level. In
// adversary mode each unordered clwb completes before or after the pcommit
// with equal probability.
func (e *Env) Pcommit() {
	e.hook()
	if e.Level < LevelLogP {
		return
	}
	e.B.Pcommit()
	if e.Level == LevelLogP && e.Reorder != nil {
		// Nothing orders a pending clwb before this pcommit: each one
		// completes before the drain with probability 1/2, and otherwise
		// stays in flight — possibly across several pcommits, possibly
		// forever (lost at a crash). This is the hazard the first sfence
		// of the sfence–pcommit–sfence barrier prevents.
		var still []uint64
		for _, a := range e.pendingClwb {
			if e.Reorder.Intn(2) == 0 {
				e.M.Clwb(a)
			} else {
				still = append(still, a)
			}
		}
		e.M.Pcommit()
		e.pendingClwb = still
		return
	}
	e.M.Pcommit()
}

// Sfence orders stores and PMEM instructions; elided below LevelFull.
func (e *Env) Sfence() {
	e.hook()
	if e.Level < LevelFull {
		return
	}
	e.B.Sfence()
	e.M.Sfence()
}

// PersistBarrier issues the paper's sfence–pcommit–sfence sequence that
// makes all previously written-back lines durable before any later store.
// Under barrier coalescing the trio is deferred until FlushBarriers.
func (e *Env) PersistBarrier() {
	if e.coalesce {
		e.deferredTrios++
		e.pendingTrio = true
		return
	}
	e.Sfence()
	e.Pcommit()
	e.Sfence()
}

// SetBarrierCoalescing switches group-commit mode on or off. While on,
// every PersistBarrier is deferred; call FlushBarriers at each batch
// boundary to issue the one amortized barrier.
func (e *Env) SetBarrierCoalescing(on bool) { e.coalesce = on }

// DeferredBarriers reports how many PersistBarrier trios coalescing has
// elided so far (the service layer publishes it as a counter).
func (e *Env) DeferredBarriers() uint64 { return e.deferredTrios }

// FlushBarriers closes a group-commit batch: if any barrier was deferred
// since the previous flush, it issues one real sfence–pcommit–sfence trio
// covering the whole batch. A batch that deferred nothing (e.g. all reads)
// issues nothing.
func (e *Env) FlushBarriers() {
	if !e.pendingTrio {
		return
	}
	e.pendingTrio = false
	e.Sfence()
	e.Pcommit()
	e.Sfence()
}

// Crash simulates power loss through the persistence model and discards
// any in-flight (never-completed) clwbs of the ordering adversary.
func (e *Env) Crash(opts pmem.CrashOptions) {
	e.pendingClwb = nil
	e.M.Crash(opts)
}

// FlushRange issues one clwb per cache line spanned by [addr, addr+size).
func (e *Env) FlushRange(addr uint64, size int) {
	base := mem.LineAddr(addr)
	for i := 0; i < mem.LinesSpanned(addr, size); i++ {
		e.Clwb(base + uint64(i*mem.LineSize))
	}
}
