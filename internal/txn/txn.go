// Package txn implements failure-safe updates to non-volatile memory through
// transactions based on write-ahead undo logging, following §3.1 of the
// paper:
//
//	Step 1: write undo-log entries and make them durable.
//	Step 2: set logged_bit and make it durable (transaction has begun).
//	Step 3: commit the updates to memory and make them durable.
//	Step 4: clear logged_bit and make it durable (transaction complete).
//
// Each step ends with a persist barrier (sfence–pcommit–sfence), so one
// transactional update issues at least 4 pcommits and 8 sfences.
//
// The log region lives in simulated NVM: a header line holding logged_bit
// and the entry count, a packed array of entry metadata (the original line
// address per entry), and one 64-byte data line per entry holding the
// pre-image. Logging granularity is one cache line, matching the paper's
// node-per-line layout.
package txn

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/obs"
)

// Stats aggregates transaction activity; the log-footprint experiment uses
// it to compare logging policies.
type Stats struct {
	Txns       uint64 // committed transactions
	Entries    uint64 // undo-log line entries written
	MaxEntries int    // largest single transaction's entry count
	Recoveries uint64 // rollbacks performed by Recover
}

// Manager owns one undo-log region and runs transactions against it. A
// Manager supports one transaction at a time (the workloads are
// single-threaded).
type Manager struct {
	env      *exec.Env
	hdr      uint64 // header line: [0] logged_bit, [8] entry count
	meta     uint64 // capacity packed uint64 original-line addresses
	data     uint64 // capacity pre-image lines
	capacity int
	active   *Tx
	stats    Stats
	scratch  [mem.LineSize]byte // pre-image staging for Log (no per-line alloc)
	sets     lineSets           // the active transaction's lines
}

// lineSets is a transaction's line bookkeeping. The Manager owns one and
// every transaction reuses it: Begin clears the sets in O(1), and each set
// is sized by the largest transaction so far, not by the heap it spans.
type lineSets struct {
	logged  mem.LineSet // line bases already logged
	fresh   mem.LineSet // line bases allocated inside the transaction
	touched mem.LineSet // line bases modified in step 3
	order   []uint64    // the touched lines, in first-touch order
}

// Stats returns a copy of the activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// Register publishes the transaction counters into the registry under the
// "txn." key space.
func (m *Manager) Register(r *obs.Registry) {
	r.RegisterFunc("txn.txns", func() uint64 { return m.stats.Txns })
	r.RegisterFunc("txn.entries", func() uint64 { return m.stats.Entries })
	r.RegisterFunc("txn.max_entries", func() uint64 { return uint64(m.stats.MaxEntries) })
	r.RegisterFunc("txn.recoveries", func() uint64 { return m.stats.Recoveries })
}

// NewManager allocates a log region with room for capacity line entries.
func NewManager(env *exec.Env, capacity int) *Manager {
	if capacity <= 0 {
		panic("txn: capacity must be positive")
	}
	metaLines := (capacity*8 + mem.LineSize - 1) / mem.LineSize
	m := &Manager{
		env:      env,
		hdr:      env.AllocLines(1),
		capacity: capacity,
	}
	m.meta = env.AllocLines(metaLines)
	m.data = env.AllocLines(capacity)
	return m
}

// Fork returns a copy of the manager bound to env, which must be a fork of
// the manager's own env (exec.Env.Fork): the log region's addresses, the
// capacity and the stats carry over. The copy gets line sets of its own,
// so forks run concurrently with each other and with m. Forking inside a
// transaction is a bug (the transaction's Go-side state would be shared)
// and panics.
func (m *Manager) Fork(env *exec.Env) *Manager {
	if m.active != nil {
		panic("txn: Fork inside a transaction")
	}
	c := *m
	c.env = env
	c.sets = lineSets{}
	return &c
}

// Env returns the execution environment the manager runs on.
func (m *Manager) Env() *exec.Env { return m.env }

// Capacity returns the maximum number of line entries per transaction.
func (m *Manager) Capacity() int { return m.capacity }

// Begin starts a transaction. Returns an error if one is already active.
func (m *Manager) Begin() (*Tx, error) {
	if m.active != nil {
		return nil, fmt.Errorf("txn: transaction already active")
	}
	m.sets.logged.Clear()
	m.sets.fresh.Clear()
	m.sets.touched.Clear()
	m.sets.order = m.sets.order[:0]
	t := &Tx{m: m}
	m.active = t
	return t, nil
}

// MustBegin is Begin panicking on error; used by workload drivers whose
// structure guarantees serial transactions.
func (m *Manager) MustBegin() *Tx {
	t, err := m.Begin()
	if err != nil {
		panic(err)
	}
	return t
}

// Tx is an in-flight transaction. All methods are safe on a nil receiver,
// which lets non-transactional (Base-variant) code share the transactional
// code path by passing a nil *Tx. Its lines live in the Manager's reused
// sets, so a Tx is usable only while it is the Manager's active one.
type Tx struct {
	m      *Manager
	n      int // entries written so far
	sealed bool
	done   bool
}

// lines returns the transaction's line sets, panicking when the Tx has
// committed or a crash recovery discarded it: its sets may already belong
// to the next transaction.
func (t *Tx) lines() *lineSets {
	if t.m.active != t {
		panic("txn: use of a finished transaction")
	}
	return &t.m.sets
}

// Log records the pre-image of every cache line spanned by
// [addr, addr+size) that has not been logged yet in this transaction.
// dep is a dependence handle for the address computation. Must be called
// before SetLogged.
func (t *Tx) Log(addr uint64, size int, dep isa.Reg) {
	if t == nil {
		return
	}
	if t.sealed {
		panic("txn: Log after SetLogged")
	}
	env, ls := t.m.env, t.lines()
	base := mem.LineAddr(addr)
	for i := 0; i < mem.LinesSpanned(addr, size); i++ {
		line := base + uint64(i*mem.LineSize)
		if ls.logged.Has(line) {
			continue
		}
		if t.n >= t.m.capacity {
			panic(&CapacityError{Capacity: t.m.capacity})
		}
		ls.logged.Add(line)
		// Copy the pre-image into the entry's data line and record the
		// original address in the packed metadata array, then write the
		// data line back so step 1's barrier can make it durable.
		ld := env.LoadBytesInto(t.m.scratch[:], line, dep)
		entry := t.m.data + uint64(t.n*mem.LineSize)
		env.StoreBytes(entry, t.m.scratch[:], ld, isa.NoReg)
		env.StoreU64(t.m.meta+uint64(t.n*8), line, isa.NoReg, isa.NoReg)
		env.Clwb(entry)
		t.n++
	}
}

// CapacityError is the panic value of a Log whose transaction outgrows
// the manager's capacity. A capacity taken from a configuration is the
// configuration's fault, so drivers that accept one turn this panic into
// their error with RecoverCapacity.
type CapacityError struct{ Capacity int }

func (e *CapacityError) Error() string {
	return fmt.Sprintf("txn: log capacity %d exceeded", e.Capacity)
}

// RecoverCapacity, deferred, turns a CapacityError panic into *err and
// re-raises any other panic.
func RecoverCapacity(err *error) {
	if r := recover(); r != nil {
		ce, ok := r.(*CapacityError)
		if !ok {
			panic(r)
		}
		*err = ce
	}
}

// Sealed reports whether SetLogged has been called (the transaction is in
// its update phase).
func (t *Tx) Sealed() bool { return t != nil && t.sealed }

// Fresh declares the lines spanned by [addr, addr+size) as freshly
// allocated within this transaction. Fresh lines need no undo logging: they
// are unreachable from the durable structure until the commit links them,
// so a rollback simply leaks them.
func (t *Tx) Fresh(addr uint64, size int) {
	if t == nil {
		return
	}
	ls := t.lines()
	base := mem.LineAddr(addr)
	for i := 0; i < mem.LinesSpanned(addr, size); i++ {
		ls.fresh.Add(base + uint64(i*mem.LineSize))
	}
}

// Covered reports whether every line of [addr, addr+size) is either logged
// or declared fresh — i.e. whether a store there is recoverable. The
// structure audit tests use this to prove conservative logging is
// sufficient.
func (t *Tx) Covered(addr uint64, size int) bool {
	if t == nil {
		return true
	}
	ls := t.lines()
	base := mem.LineAddr(addr)
	for i := 0; i < mem.LinesSpanned(addr, size); i++ {
		line := base + uint64(i*mem.LineSize)
		if !ls.logged.Has(line) && !ls.fresh.Has(line) {
			return false
		}
	}
	return true
}

// SetLogged completes steps 1 and 2: persists the log (entries, metadata,
// count) with a barrier, then sets logged_bit and persists it with a second
// barrier. After SetLogged the caller performs its updates.
func (t *Tx) SetLogged() {
	if t == nil {
		return
	}
	if t.sealed {
		panic("txn: SetLogged called twice")
	}
	t.sealed = true
	env := t.m.env
	// Step 1: entry data lines were written back as they were logged;
	// persist the metadata lines and the entry count.
	env.FlushRange(t.m.meta, t.n*8)
	env.StoreU64(t.m.hdr+8, uint64(t.n), isa.NoReg, isa.NoReg)
	env.Clwb(t.m.hdr)
	env.PersistBarrier()
	// Step 2: announce the transaction.
	env.StoreU64(t.m.hdr, 1, isa.NoReg, isa.NoReg)
	env.Clwb(t.m.hdr)
	env.PersistBarrier()
}

// Touch records that the caller modified the lines spanned by
// [addr, addr+size) during step 3, so Commit can write them back.
func (t *Tx) Touch(addr uint64, size int) {
	if t == nil {
		return
	}
	ls := t.lines()
	base := mem.LineAddr(addr)
	for i := 0; i < mem.LinesSpanned(addr, size); i++ {
		if line := base + uint64(i*mem.LineSize); ls.touched.Add(line) {
			ls.order = append(ls.order, line)
		}
	}
}

// Commit completes steps 3 and 4: persists the touched lines with a
// barrier, then clears logged_bit and persists it with a final barrier.
func (t *Tx) Commit() {
	if t == nil {
		return
	}
	if !t.sealed {
		panic("txn: Commit before SetLogged")
	}
	if t.done {
		panic("txn: Commit called twice")
	}
	env, ls := t.m.env, t.lines()
	t.done = true
	// Step 3: make the updates durable.
	for _, line := range ls.order {
		env.Clwb(line)
	}
	env.PersistBarrier()
	// Step 4: retire the transaction.
	env.StoreU64(t.m.hdr, 0, isa.NoReg, isa.NoReg)
	env.Clwb(t.m.hdr)
	env.PersistBarrier()
	t.m.stats.Txns++
	t.m.stats.Entries += uint64(t.n)
	if t.n > t.m.stats.MaxEntries {
		t.m.stats.MaxEntries = t.n
	}
	t.m.active = nil
}

// Recover applies the undo log if logged_bit is set, restoring every logged
// line's pre-image, persisting the restores, and clearing the bit. It
// returns true if a rollback was performed.
//
// Recovery runs directly against the persistence model (fully fenced,
// untraced): it models the post-restart recovery code, which is not part of
// the measured workload.
//
// Like the forward path, Recover fires env.Hook before every state-changing
// operation (stores, clwbs, pcommits — 2·count+4 events for a rollback of
// count entries), so crash injection can interrupt recovery itself.
func (m *Manager) Recover() bool {
	// Any transaction in flight at the crash is gone.
	m.active = nil
	pm := m.env.M
	hook := func() {
		if m.env.Hook != nil {
			m.env.Hook()
		}
	}
	if pm.ReadU64(m.hdr) == 0 {
		return false
	}
	count := pm.ReadU64(m.hdr + 8)
	if count > uint64(m.capacity) {
		panic(fmt.Sprintf("txn: corrupt log count %d", count))
	}
	// Apply entries in reverse. (With line-granularity pre-images and
	// first-touch logging, order does not matter, but reverse matches the
	// classical undo discipline.)
	buf := make([]byte, mem.LineSize)
	for i := int(count) - 1; i >= 0; i-- {
		addr := pm.ReadU64(m.meta + uint64(i*8))
		pm.Read(m.data+uint64(i*mem.LineSize), buf)
		hook()
		pm.Write(addr, buf)
		hook()
		pm.Clwb(addr)
	}
	hook()
	pm.Pcommit()
	hook()
	pm.WriteU64(m.hdr, 0)
	hook()
	pm.Clwb(m.hdr)
	hook()
	pm.Pcommit()
	m.active = nil
	m.stats.Recoveries++
	return true
}
