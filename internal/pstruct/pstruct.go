// Package pstruct implements the paper's benchmark data structures as
// persistent structures over simulated non-volatile memory (Table 1):
// linked list, hash map, graph, string-swap array, AVL tree, 2-3 B-tree and
// red-black tree.
//
// Every node is 64 bytes and cache-line aligned, so persisting one node
// update takes one clwb (Table 1's note). All memory accesses go through an
// exec.Env, which both applies them functionally and emits the
// corresponding instructions into the trace. Updates are transactional via
// write-ahead undo logging (internal/txn); constructing a structure with a
// nil *txn.Manager yields the non-transactional baseline variant.
//
// The self-balancing trees use the paper's *full logging* policy (§3.2):
// before any modification, the transaction conservatively logs every node
// that may be touched by the operation including rebalancing — the full
// root-to-leaf path plus nearby children. The Audit flag makes every store
// verify that its line was logged (or freshly allocated), which the tests
// use to prove the conservative sets are sufficient.
package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/txn"
	"specpersist/internal/vstore"
)

// Audit, when true, makes every transactional store verify that its target
// line is covered by the undo log (or is freshly allocated). Enabled by
// tests; off by default because the check costs a map lookup per store.
//
// Audit is the package's only mutable global: set it before starting any
// concurrent runs (e.g. a parallel sweep) and leave it fixed while they
// execute — toggling it mid-run is a data race.
var Audit = false

// Structure is the operation interface the workload harness drives. Apply
// implements the paper's benchmark "operation": search for the key, delete
// it if present, insert it otherwise (§3.2); for the string-swap array it
// swaps two strings selected by the key.
type Structure interface {
	// Name returns the benchmark abbreviation (LL, HM, GH, SS, AT, BT, RT).
	Name() string
	// Apply performs one benchmark operation derived from key.
	Apply(key uint64)
	// Contains reports whether key is present (not meaningful for SS).
	Contains(key uint64) bool
	// Size returns the element count.
	Size() int
	// Check validates all structural invariants against the current
	// (volatile) view. It reads through the model, so it adds to
	// pmem.loads: a check is not free for a run's metrics.
	Check() error
}

// base carries the execution environment and transaction manager shared by
// all structures.
type base struct {
	env *exec.Env
	mgr *txn.Manager
}

// begin starts a transaction, or returns nil in the baseline variant.
func (b *base) begin() *txn.Tx {
	if b.mgr == nil {
		return nil
	}
	return b.mgr.MustBegin()
}

// ld loads a uint64 field, emitting a load dependent on dep.
func (b *base) ld(addr uint64, dep isa.Reg) (uint64, isa.Reg) {
	return b.env.LoadU64(addr, dep)
}

// st stores a uint64 field within a transaction's update phase: it audits
// log coverage, performs the store, and records the line for commit-time
// writeback.
func (b *base) st(tx *txn.Tx, addr uint64, v uint64, dataDep, addrDep isa.Reg) {
	if Audit && tx.Sealed() && !tx.Covered(addr, 8) {
		panic(fmt.Sprintf("pstruct: store to unlogged line %#x", mem.LineAddr(addr)))
	}
	b.env.StoreU64(addr, v, dataDep, addrDep)
	tx.Touch(addr, 8)
}

// allocNode allocates one line-aligned 64-byte node and marks it fresh in
// the transaction.
func (b *base) allocNode(tx *txn.Tx) uint64 {
	a := b.env.AllocLines(1)
	tx.Fresh(a, mem.LineSize)
	return a
}

// cmp emits one ALU op for a key comparison dependent on the loaded key.
func (b *base) cmp(deps ...isa.Reg) isa.Reg { return b.env.Compute(deps...) }

// Config carries the structure-specific sizing parameters used by Build.
type Config struct {
	HashCapacity int // initial hash-map capacity (entries)
	GraphVerts   int // number of graph vertices
	Strings      int // string-swap array length

	// Versions caps the versioned tree store's manifest (0 = vstore default).
	Versions int
	// VstoreUnsafeFlip selects the versioned store's negative-control
	// commit protocol (root flip reordered before the changeset flush).
	VstoreUnsafeFlip bool
}

// DefaultConfig returns the sizing used by the workload harness at scale 1.
func DefaultConfig() Config {
	return Config{HashCapacity: 1 << 16, GraphVerts: 1 << 12, Strings: 1 << 14}
}

// Names lists the benchmark abbreviations in the paper's Table 1 order.
// These are the WAL-logged structures the default campaigns iterate.
func Names() []string { return []string{"GH", "HM", "LL", "SS", "AT", "BT", "RT"} }

// AllNames lists every structure Build accepts: the Table 1 WAL structures
// plus the versioned copy-on-write tree store ("VT"), which persists via
// changeset commit instead of the undo log and therefore sits outside the
// Table 1 default set.
func AllNames() []string { return append(Names(), "VT") }

// DefaultLogCap is the undo-log capacity, in entries, that a serving
// shard or conflict-engine core gives the named structure when its config
// leaves the log size zero (trees touch more lines per op).
func DefaultLogCap(structure string) int {
	switch structure {
	case "AT", "BT":
		return 1024
	case "RT":
		return 2048
	default:
		return 64
	}
}

// Build constructs the named benchmark structure. mgr may be nil for the
// non-transactional baseline variant. Unknown names panic.
func Build(name string, env *exec.Env, mgr *txn.Manager, cfg Config) Structure {
	switch name {
	case "GH":
		return NewGraph(env, mgr, cfg.GraphVerts)
	case "HM":
		return NewHashMap(env, mgr, cfg.HashCapacity)
	case "LL":
		return NewList(env, mgr)
	case "SS":
		return NewStringSwap(env, mgr, cfg.Strings)
	case "AT":
		return NewAVL(env, mgr)
	case "BT":
		return NewBTree(env, mgr)
	case "RT":
		return NewRBTree(env, mgr)
	case "VT":
		// The versioned COW tree ignores mgr: it persists via changeset
		// commit, not the WAL.
		return NewVTree(env, vstore.Config{Versions: cfg.Versions, UnsafeFlip: cfg.VstoreUnsafeFlip})
	default:
		panic(fmt.Sprintf("pstruct: unknown structure %q", name))
	}
}

// Fork returns a copy of s bound to env and mgr, which must be forks of the
// env and manager s was built on (exec.Env.Fork, txn.Manager.Fork). The WAL
// structures keep their state in simulated memory and hold only addresses
// fixed at construction and plain values (SS's swap count and scratch
// buffers), so a value copy with the bindings swapped is independent; the
// versioned store also copies its Go-side working set.
func Fork(s Structure, env *exec.Env, mgr *txn.Manager) Structure {
	b := base{env: env, mgr: mgr}
	switch t := s.(type) {
	case *Graph:
		c := *t
		c.base = b
		return &c
	case *HashMap:
		c := *t
		c.base = b
		return &c
	case *List:
		c := *t
		c.base = b
		return &c
	case *StringSwap:
		c := *t
		c.base = b
		return &c
	case *AVL:
		c := *t
		c.base = b
		return &c
	case *BTree:
		c := *t
		c.base = b
		return &c
	case *RBTree:
		c := *t
		c.base = b
		return &c
	case *VTree:
		c := *t
		c.S = t.S.Fork(env)
		return &c
	default:
		panic(fmt.Sprintf("pstruct: cannot fork %T", s))
	}
}

// mix64 is the functional hash used by the hash map and key-splitting
// helpers (SplitMix64 finalizer).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
