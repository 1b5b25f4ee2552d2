// Package vstore is a versioned copy-on-write 2-3 B-tree over simulated
// non-volatile memory — the *other* persist-barrier profile from the WAL
// structures in internal/pstruct. Where the undo-logged structures pay a
// small ordered flush sequence per operation (many light barriers), vstore
// batches an arbitrary number of mutations into an in-flight changeset of
// freshly allocated immutable 64-byte nodes and persists the whole set at
// Commit behind a single pair of persist barriers: one ordering the new
// nodes + manifest entry, one ordering the 8-byte root-selector flip. All
// committed nodes are immutable, so versions share structure (path
// copying), old versions stay readable forever (time-travel gets), and a
// structural Diff can skip subtrees shared by line address.
//
// Durable layout:
//
//	header line:   [0] current-version selector  [8] manifest base  [16] capacity
//	manifest:      one line per version v at base+64v:
//	               [0] v (self-check)  [8] root  [16] leaves  [24] parent  [32] changeset nodes
//	nodes:         the pstruct btree layout (flags/n/keys/kids), one line each
//
// Crash safety: the selector flips only after the flipped-to version's
// manifest entry and every node reachable from it are durable (the first
// barrier), and the flip itself is a single 8-byte store — atomic at the
// NVM's write granularity — followed by its own barrier. A crash at any
// point therefore lands on the last committed version exactly; an
// in-flight changeset (unreferenced fresh lines) vanishes without trace.
// Config.UnsafeFlip deliberately breaks this (the flip rides the same
// barrier as the changeset) as the fault campaign's negative control.
package vstore

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/obs"
	"specpersist/internal/splitmix"
)

// Node field offsets (identical to the pstruct 2-3 B-tree layout).
const (
	ndFlags = 0
	ndN     = 8
	ndKey0  = 16
	ndKey1  = 24
	ndKid0  = 32
)

// Manifest entry field offsets.
const (
	meVersion = 0
	meRoot    = 8
	meCount   = 16
	meParent  = 24
	meNodes   = 32
)

// Header line field offsets.
const (
	hdrSelector = 0
	hdrManifest = 8
	hdrCapacity = 16
)

// DefaultVersions is the manifest capacity when Config.Versions is zero.
// Address space is sparse and paged, so unused manifest lines cost nothing.
const DefaultVersions = 1 << 16

// Config sizes and configures one store.
type Config struct {
	// Versions caps how many versions the manifest can hold (0 = DefaultVersions).
	Versions int
	// FreeValues permits arbitrary Put values. By default values carry the
	// benchmark invariant value = splitmix.Mix(key), which Check verifies per leaf
	// so torn value chunks are detectable.
	FreeValues bool
	// UnsafeFlip is the fault campaign's negative control: Commit issues
	// the root-selector flip before the changeset flush and merges both
	// into a single barrier, so a crash can persist the flip while the
	// nodes it points at are lost.
	UnsafeFlip bool
}

// Stats counts the store's lifetime activity.
type Stats struct {
	Commits        uint64 // changeset commits that created a version
	EmptyCommits   uint64 // Commit calls with a clean working set (no barrier)
	NodesWritten   uint64 // fresh node lines across all committed changesets
	ChangesetLines uint64 // lines flushed at commit (nodes + manifest entries)
	Barriers       uint64 // persist barriers issued by Commit
	TimeTravelGets uint64 // committed-version reads served while a changeset was in flight
	Diffs          uint64 // Diff calls
	Branches       uint64 // Branch calls
}

// Store is one versioned COW tree over an exec.Env. It is not safe for
// concurrent use, matching the rest of the simulator's single-writer model.
type Store struct {
	env      *exec.Env
	hdr      uint64
	manifest uint64
	capacity int
	cfg      Config

	// Committed state (mirrors the durable selector).
	version uint64

	// In-flight working set: root/count are the working tree, parent is the
	// version the changeset is based on, inflight marks lines allocated
	// since the last commit (mutable in place; everything else is
	// immutable and must be path-copied).
	parent   uint64
	root     uint64
	count    uint64
	fresh    []uint64
	inflight map[uint64]bool
	dirty    bool

	stats Stats
}

// New constructs an empty store. Version 0 is the committed empty tree:
// fresh NVM reads zero, so the all-zero header selector and manifest entry
// 0 (root 0, count 0) are already a consistent durable state.
func New(env *exec.Env, cfg Config) *Store {
	capacity := cfg.Versions
	if capacity <= 0 {
		capacity = DefaultVersions
	}
	s := &Store{
		env:      env,
		capacity: capacity,
		cfg:      cfg,
		inflight: make(map[uint64]bool),
	}
	s.hdr = env.AllocLines(1)
	s.manifest = env.AllocLines(capacity)
	// Construction is functional (no trace, no crash points): the header's
	// manifest pointer and capacity are fixed for the store's lifetime and
	// double as a recovery-time self-check.
	env.M.WriteU64(s.hdr+hdrManifest, s.manifest)
	env.M.WriteU64(s.hdr+hdrCapacity, uint64(capacity))
	return s
}

// Fork returns a copy of the store bound to env, which must be a fork of
// the store's own env (exec.Env.Fork). The durable layout lives in env's
// memory; the copy gets its own Go-side working set (fresh lines and the
// in-flight map) and stats.
func (s *Store) Fork(env *exec.Env) *Store {
	c := *s
	c.env = env
	c.fresh = append([]uint64(nil), s.fresh...)
	c.inflight = make(map[uint64]bool, len(s.inflight))
	for a, v := range s.inflight {
		c.inflight[a] = v
	}
	return &c
}

// entryAddr returns version v's manifest line.
func (s *Store) entryAddr(v uint64) uint64 { return s.manifest + v*mem.LineSize }

// Version returns the last committed version.
func (s *Store) Version() uint64 { return s.version }

// Versions returns how many committed versions exist (version numbers are
// 0..Versions()-1).
func (s *Store) Versions() int { return int(s.version) + 1 }

// Count returns the working tree's key count.
func (s *Store) Count() uint64 { return s.count }

// Dirty reports whether the working set holds uncommitted mutations.
func (s *Store) Dirty() bool { return s.dirty }

// Register publishes the store's counters into reg under vstore.* keys.
func (s *Store) Register(reg *obs.Registry) {
	reg.RegisterFunc("vstore.commits", func() uint64 { return s.stats.Commits })
	reg.RegisterFunc("vstore.empty_commits", func() uint64 { return s.stats.EmptyCommits })
	reg.RegisterFunc("vstore.versions", func() uint64 { return s.version })
	reg.RegisterFunc("vstore.nodes_written", func() uint64 { return s.stats.NodesWritten })
	reg.RegisterFunc("vstore.changeset_lines", func() uint64 { return s.stats.ChangesetLines })
	reg.RegisterFunc("vstore.barriers", func() uint64 { return s.stats.Barriers })
	reg.RegisterFunc("vstore.time_travel_gets", func() uint64 { return s.stats.TimeTravelGets })
	reg.RegisterFunc("vstore.diffs", func() uint64 { return s.stats.Diffs })
	reg.RegisterFunc("vstore.branches", func() uint64 { return s.stats.Branches })
}

// node is a decoded tree node.
type node struct {
	addr uint64
	leaf bool
	n    uint64
	keys [2]uint64
	kids [3]uint64
	dep  isa.Reg
}

// allocNode allocates one fresh changeset line.
func (s *Store) allocNode() uint64 {
	a := s.env.AllocLines(1)
	s.fresh = append(s.fresh, a)
	s.inflight[a] = true
	s.dirty = true
	return a
}

// shadow returns the line nd's new contents may be written to: a node
// allocated in the current changeset is mutable in place; a committed node
// is immutable, so path copying allocates a fresh line and the caller
// repoints the parent.
func (s *Store) shadow(addr uint64) uint64 {
	if addr != 0 && s.inflight[addr] {
		return addr
	}
	return s.allocNode()
}

// readNode loads a node's fields, emitting loads dependent on dep.
func (s *Store) readNode(addr uint64, dep isa.Reg) node {
	nd := node{addr: addr}
	flags, fr := s.env.LoadU64(addr+ndFlags, dep)
	nd.leaf = flags == 1
	nd.dep = fr
	if nd.leaf {
		nd.keys[0], _ = s.env.LoadU64(addr+ndKey0, fr)
		nd.keys[1], _ = s.env.LoadU64(addr+ndKey1, fr)
		return nd
	}
	nd.n, _ = s.env.LoadU64(addr+ndN, fr)
	nd.keys[0], _ = s.env.LoadU64(addr+ndKey0, fr)
	nd.keys[1], _ = s.env.LoadU64(addr+ndKey1, fr)
	for i := 0; i < int(nd.n); i++ {
		nd.kids[i], _ = s.env.LoadU64(addr+ndKid0+uint64(8*i), fr)
	}
	return nd
}

// writeLeaf initializes or rewrites a leaf.
func (s *Store) writeLeaf(addr, key, value uint64, dep isa.Reg) {
	s.env.StoreU64(addr+ndFlags, 1, isa.NoReg, dep)
	s.env.StoreU64(addr+ndKey0, key, isa.NoReg, dep)
	s.env.StoreU64(addr+ndKey1, value, isa.NoReg, dep)
}

// writeInternal rewrites an internal node's routing state.
func (s *Store) writeInternal(nd node) {
	s.env.StoreU64(nd.addr+ndFlags, 0, isa.NoReg, nd.dep)
	s.env.StoreU64(nd.addr+ndN, nd.n, isa.NoReg, nd.dep)
	s.env.StoreU64(nd.addr+ndKey0, nd.keys[0], isa.NoReg, nd.dep)
	s.env.StoreU64(nd.addr+ndKey1, nd.keys[1], isa.NoReg, nd.dep)
	for i := 0; i < int(nd.n); i++ {
		s.env.StoreU64(nd.addr+ndKid0+uint64(8*i), nd.kids[i], isa.NoReg, nd.dep)
	}
}

// route returns the child index to follow for key.
func (s *Store) route(nd node, key uint64) int {
	s.env.Compute(nd.dep)
	if key < nd.keys[0] {
		return 0
	}
	if nd.n == 2 || key < nd.keys[1] {
		return 1
	}
	return 2
}

// lookup walks the subtree at root for key, emitting traced loads.
func (s *Store) lookup(root, key uint64, dep isa.Reg) (uint64, bool) {
	cur := root
	for cur != 0 {
		nd := s.readNode(cur, dep)
		if nd.leaf {
			s.env.Compute(nd.dep)
			if nd.keys[0] == key {
				return nd.keys[1], true
			}
			return 0, false
		}
		cur = nd.kids[s.route(nd, key)]
		dep = nd.dep
	}
	return 0, false
}

// Get reads key from the working tree (committed state plus the in-flight
// changeset).
func (s *Store) Get(key uint64) (uint64, bool) {
	return s.lookup(s.root, key, isa.NoReg)
}

// GetAt reads key from committed version v — a time-travel read. The
// version's root comes from a traced manifest load, then the walk descends
// the immutable node graph.
func (s *Store) GetAt(key, v uint64) (uint64, bool) {
	if v > s.version {
		panic(fmt.Sprintf("vstore: GetAt version %d > committed %d", v, s.version))
	}
	if s.dirty {
		s.stats.TimeTravelGets++
	}
	root, dep := s.env.LoadU64(s.entryAddr(v)+meRoot, isa.NoReg)
	return s.lookup(root, key, dep)
}

// GetCommitted reads key from the last committed version, ignoring the
// in-flight changeset — what a server returns while a commit is pending.
func (s *Store) GetCommitted(key uint64) (uint64, bool) {
	return s.GetAt(key, s.version)
}

// Toggle applies the paper's benchmark operation to the working set:
// delete key if present, insert it (value splitmix.Mix(key)) otherwise.
func (s *Store) Toggle(key uint64) {
	if _, ok := s.Get(key); ok {
		s.deleteKnown(key)
		return
	}
	s.Put(key, splitmix.Mix(key))
}

// Put inserts or updates key in the working set.
func (s *Store) Put(key, val uint64) {
	if s.root == 0 {
		n := s.allocNode()
		s.writeLeaf(n, key, val, isa.NoReg)
		s.root = n
		s.count++
		s.dirty = true
		return
	}
	newRoot, sep, right, added := s.insert(s.root, key, val, isa.NoReg)
	if right != 0 {
		nr := s.allocNode()
		s.writeInternal(node{addr: nr, n: 2, keys: [2]uint64{sep}, kids: [3]uint64{newRoot, right}})
		newRoot = nr
	}
	s.root = newRoot
	if added {
		s.count++
	}
	s.dirty = true
}

// deleteKnown removes a key the caller has verified is present.
func (s *Store) deleteKnown(key uint64) {
	nd := s.readNode(s.root, isa.NoReg)
	if nd.leaf {
		s.root = 0
	} else {
		newRoot, under := s.remove(s.root, key, isa.NoReg)
		if under {
			// Root underflowed to a single child: shrink the tree.
			r := s.readNode(newRoot, isa.NoReg)
			newRoot = r.kids[0]
		}
		s.root = newRoot
	}
	s.count--
	s.dirty = true
}

// insert adds key under addr, path-copying every modified node. It returns
// the subtree's (possibly new) root; on a split additionally the promoted
// separator and new right sibling; and whether a new key was added (false
// for a value update).
func (s *Store) insert(addr, key, val uint64, dep isa.Reg) (uint64, uint64, uint64, bool) {
	nd := s.readNode(addr, dep)
	if nd.leaf {
		s.env.Compute(nd.dep)
		if nd.keys[0] == key {
			a := s.shadow(nd.addr)
			s.writeLeaf(a, key, val, nd.dep)
			return a, 0, 0, false
		}
		// Split the leaf position: the smaller key keeps the (shadowed)
		// left slot so separators above stay valid; the larger key moves to
		// a fresh right leaf whose minimum is the promoted separator.
		right := s.allocNode()
		if key < nd.keys[0] {
			a := s.shadow(nd.addr)
			s.writeLeaf(right, nd.keys[0], nd.keys[1], nd.dep)
			s.writeLeaf(a, key, val, nd.dep)
			return a, nd.keys[0], right, true
		}
		s.writeLeaf(right, key, val, nd.dep)
		return nd.addr, key, right, true
	}
	i := s.route(nd, key)
	newKid, sep, right, added := s.insert(nd.kids[i], key, val, nd.dep)
	nd.kids[i] = newKid
	if right == 0 {
		nd.addr = s.shadow(nd.addr)
		s.writeInternal(nd)
		return nd.addr, 0, 0, added
	}
	if nd.n == 2 {
		// Absorb: shift children/keys to place right after position i.
		switch i {
		case 0:
			nd.kids = [3]uint64{nd.kids[0], right, nd.kids[1]}
			nd.keys = [2]uint64{sep, nd.keys[0]}
		default:
			nd.kids = [3]uint64{nd.kids[0], nd.kids[1], right}
			nd.keys = [2]uint64{nd.keys[0], sep}
		}
		nd.n = 3
		nd.addr = s.shadow(nd.addr)
		s.writeInternal(nd)
		return nd.addr, 0, 0, added
	}
	// Full node: order the four children and three separators, keep the
	// first two here, move the last two to a fresh node, promote the middle
	// separator.
	var c [4]uint64
	var sk [3]uint64
	copy(c[:], nd.kids[:])
	copy(sk[:], nd.keys[:])
	for j := 3; j > i+1; j-- {
		c[j] = c[j-1]
	}
	c[i+1] = right
	for j := 2; j > i; j-- {
		sk[j] = sk[j-1]
	}
	sk[i] = sep
	left := s.shadow(nd.addr)
	s.writeInternal(node{addr: left, n: 2, keys: [2]uint64{sk[0]}, kids: [3]uint64{c[0], c[1]}, dep: nd.dep})
	rn := s.allocNode()
	s.writeInternal(node{addr: rn, n: 2, keys: [2]uint64{sk[2]}, kids: [3]uint64{c[2], c[3]}})
	return left, sk[1], rn, added
}

// remove deletes key under internal node addr (the caller guarantees the
// key exists), path-copying modified nodes. It returns the subtree's new
// root and whether it underflowed to a single child (left in kids[0]).
func (s *Store) remove(addr, key uint64, dep isa.Reg) (uint64, bool) {
	nd := s.readNode(addr, dep)
	i := s.route(nd, key)
	child := s.readNode(nd.kids[i], nd.dep)
	if child.leaf {
		// Drop the leaf and the separator adjacent to it.
		s.dropChild(&nd, i)
		nd.addr = s.shadow(nd.addr)
		s.writeInternal(nd)
		return nd.addr, nd.n == 1
	}
	newKid, underflow := s.remove(nd.kids[i], key, nd.dep)
	nd.kids[i] = newKid
	if !underflow {
		nd.addr = s.shadow(nd.addr)
		s.writeInternal(nd)
		return nd.addr, false
	}
	// Child underflowed: its single remaining grandchild is in kids[0].
	under := s.readNode(newKid, nd.dep)
	var j int
	if i > 0 {
		j = i - 1
	} else {
		j = i + 1
	}
	sib := s.readNode(nd.kids[j], nd.dep)
	if sib.n == 3 {
		s.borrow(&nd, &under, &sib, i, j)
		return nd.addr, false
	}
	s.merge(&nd, &under, &sib, i, j)
	return nd.addr, nd.n == 1
}

// dropChild removes children[i] (and the separator adjacent to it) from nd.
func (s *Store) dropChild(nd *node, i int) {
	for j := i; j+1 < int(nd.n); j++ {
		nd.kids[j] = nd.kids[j+1]
	}
	ki := i - 1
	if ki < 0 {
		ki = 0
	}
	for j := ki; j+1 < int(nd.n)-1; j++ {
		nd.keys[j] = nd.keys[j+1]
	}
	nd.n--
}

// borrow moves one child from the 3-child sibling sib into the underflowed
// node, path-copying all three touched nodes.
func (s *Store) borrow(nd, under, sib *node, i, j int) {
	if j == i-1 {
		// Left donor: its last child becomes under's first.
		moved := sib.kids[2]
		under.n = 2
		under.kids = [3]uint64{moved, under.kids[0]}
		under.keys[0] = nd.keys[i-1] // old min of under's region
		nd.keys[i-1] = sib.keys[1]   // min of the moved subtree
		sib.n = 2
	} else {
		// Right donor: its first child becomes under's second.
		moved := sib.kids[0]
		under.n = 2
		under.kids = [3]uint64{under.kids[0], moved}
		under.keys[0] = nd.keys[i] // min of the moved subtree's region
		nd.keys[i] = sib.keys[0]   // new min of the donor's region
		sib.kids = [3]uint64{sib.kids[1], sib.kids[2]}
		sib.keys[0] = sib.keys[1]
		sib.n = 2
	}
	under.addr = s.shadow(under.addr)
	sib.addr = s.shadow(sib.addr)
	nd.kids[i] = under.addr
	nd.kids[j] = sib.addr
	nd.addr = s.shadow(nd.addr)
	s.writeInternal(*under)
	s.writeInternal(*sib)
	s.writeInternal(*nd)
}

// merge folds the underflowed node into its 2-child sibling and removes it
// from the parent, path-copying the survivors.
func (s *Store) merge(nd, under, sib *node, i, j int) {
	if j == i-1 {
		// Merge under into the left sibling.
		sib.kids[2] = under.kids[0]
		sib.keys[1] = nd.keys[i-1]
		sib.n = 3
		sib.addr = s.shadow(sib.addr)
		s.writeInternal(*sib)
		nd.kids[j] = sib.addr
		s.dropChild(nd, i)
	} else {
		// Merge the right sibling into under.
		under.kids = [3]uint64{under.kids[0], sib.kids[0], sib.kids[1]}
		under.keys = [2]uint64{nd.keys[i], sib.keys[0]}
		under.n = 3
		under.addr = s.shadow(under.addr)
		s.writeInternal(*under)
		nd.kids[i] = under.addr
		s.dropChild(nd, j)
	}
	nd.addr = s.shadow(nd.addr)
	s.writeInternal(*nd)
}

// Commit persists the in-flight changeset as a new version and returns the
// committed version number. With a clean working set it is a no-op (no
// barrier). The safe protocol is two barriers:
//
//  1. clwb every changeset node + the new manifest entry, then
//     sfence-pcommit-sfence — the new version's whole node graph is durable
//     but unreferenced;
//  2. one 8-byte store flipping the header's version selector, clwb,
//     sfence-pcommit-sfence — the version becomes the recovery point
//     atomically.
//
// Under Config.UnsafeFlip the flip is issued *before* the changeset flush
// and both share one barrier, so a crash inside the window can persist the
// selector while manifest or node lines are lost — the campaign's
// detectable negative control.
func (s *Store) Commit() uint64 {
	if !s.dirty {
		s.stats.EmptyCommits++
		return s.version
	}
	v := s.version + 1
	if v >= uint64(s.capacity) {
		panic(fmt.Sprintf("vstore: version manifest full (%d versions); size Config.Versions for the workload", s.capacity))
	}
	e := s.entryAddr(v)
	flushChangeset := func() {
		for _, a := range s.fresh {
			s.env.Clwb(a)
		}
		s.env.StoreU64(e+meVersion, v, isa.NoReg, isa.NoReg)
		s.env.StoreU64(e+meRoot, s.root, isa.NoReg, isa.NoReg)
		s.env.StoreU64(e+meCount, s.count, isa.NoReg, isa.NoReg)
		s.env.StoreU64(e+meParent, s.parent, isa.NoReg, isa.NoReg)
		s.env.StoreU64(e+meNodes, uint64(len(s.fresh)), isa.NoReg, isa.NoReg)
		s.env.Clwb(e)
	}
	flip := func() {
		s.env.StoreU64(s.hdr+hdrSelector, v, isa.NoReg, isa.NoReg)
		s.env.Clwb(s.hdr)
	}
	if s.cfg.UnsafeFlip {
		flip()
		flushChangeset()
		s.env.PersistBarrier()
		s.stats.Barriers++
	} else {
		flushChangeset()
		s.env.PersistBarrier()
		flip()
		s.env.PersistBarrier()
		s.stats.Barriers += 2
	}
	s.stats.Commits++
	s.stats.NodesWritten += uint64(len(s.fresh))
	s.stats.ChangesetLines += uint64(len(s.fresh)) + 1
	s.version = v
	s.parent = v
	s.fresh = s.fresh[:0]
	clear(s.inflight)
	s.dirty = false
	return v
}

// Recover re-reads the durable selector and manifest after a crash and
// resets the volatile view to the committed version, discarding any
// in-flight changeset. It is read-only (zero persistence events) and
// idempotent; it returns whether anything was discarded or moved. A
// corrupt selector or manifest entry — only reachable when the commit
// ordering was broken — panics, which the fault harness records as an
// unrecoverable-state violation.
func (s *Store) Recover() bool {
	m := s.env.M
	mf, capv := m.ReadU64(s.hdr+hdrManifest), m.ReadU64(s.hdr+hdrCapacity)
	// An all-zero header is pristine NVM (nothing was ever persisted): the
	// durable state is the empty version 0, not corruption.
	if (mf != 0 || capv != 0) && (mf != s.manifest || capv != uint64(s.capacity)) {
		panic("vstore: header corrupt: manifest pointer or capacity mismatch")
	}
	sel := m.ReadU64(s.hdr + hdrSelector)
	if sel >= uint64(s.capacity) {
		panic(fmt.Sprintf("vstore: selector %d out of manifest range %d", sel, s.capacity))
	}
	e := s.entryAddr(sel)
	if got := m.ReadU64(e + meVersion); got != sel {
		panic(fmt.Sprintf("vstore: manifest entry %d corrupt: self-check reads %d", sel, got))
	}
	root := m.ReadU64(e + meRoot)
	changed := s.dirty || sel != s.version || root != s.root
	s.version = sel
	s.parent = sel
	s.root = root
	s.count = m.ReadU64(e + meCount)
	s.fresh = s.fresh[:0]
	clear(s.inflight)
	s.dirty = false
	return changed
}

// Snapshot materializes committed version v as a key→value map (functional
// harness/oracle API, untraced).
func (s *Store) Snapshot(v uint64) map[uint64]uint64 {
	if v > s.version {
		panic(fmt.Sprintf("vstore: Snapshot of uncommitted version %d", v))
	}
	out := make(map[uint64]uint64)
	s.walkEntries(s.env.M.ReadU64(s.entryAddr(v)+meRoot), nil, func(k, val uint64) {
		out[k] = val
	})
	return out
}

// walkEntries visits the subtree's leaves in key order, skipping any
// subtree whose root line is in skip.
func (s *Store) walkEntries(addr uint64, skip map[uint64]bool, fn func(k, v uint64)) {
	if addr == 0 || skip[addr] {
		return
	}
	m := s.env.M
	if m.ReadU64(addr+ndFlags) == 1 {
		fn(m.ReadU64(addr+ndKey0), m.ReadU64(addr+ndKey1))
		return
	}
	n := m.ReadU64(addr + ndN)
	for i := uint64(0); i < n; i++ {
		s.walkEntries(m.ReadU64(addr+ndKid0+8*i), skip, fn)
	}
}

// Check validates the durable committed version (selector self-check,
// manifest entry, full tree walk: 2-3 shape, uniform leaf depth, separator
// bounds, count, and — unless FreeValues — leaf value integrity), plus the
// working tree when a changeset is in flight.
func (s *Store) Check() error {
	m := s.env.M
	sel := m.ReadU64(s.hdr + hdrSelector)
	if sel != s.version {
		return fmt.Errorf("vstore: durable selector %d != committed version %d", sel, s.version)
	}
	e := s.entryAddr(sel)
	if got := m.ReadU64(e + meVersion); got != sel {
		return fmt.Errorf("vstore: manifest entry %d self-check reads %d", sel, got)
	}
	if err := s.checkTree(m.ReadU64(e+meRoot), m.ReadU64(e+meCount)); err != nil {
		return fmt.Errorf("vstore: committed v%d: %w", sel, err)
	}
	if s.dirty {
		if err := s.checkTree(s.root, s.count); err != nil {
			return fmt.Errorf("vstore: working set: %w", err)
		}
	}
	return nil
}

// checkTree validates one tree's structural invariants and count.
func (s *Store) checkTree(root, count uint64) error {
	m := s.env.M
	var leaves uint64
	var walk func(addr uint64, depth int) (leafDepth int, minKey, maxKey uint64, err error)
	walk = func(addr uint64, depth int) (int, uint64, uint64, error) {
		if m.ReadU64(addr+ndFlags) == 1 {
			leaves++
			k := m.ReadU64(addr + ndKey0)
			if !s.cfg.FreeValues {
				if v := m.ReadU64(addr + ndKey1); v != splitmix.Mix(k) {
					return 0, 0, 0, fmt.Errorf("leaf %d value corrupt", k)
				}
			}
			return depth, k, k, nil
		}
		n := m.ReadU64(addr + ndN)
		if n < 2 || n > 3 {
			return 0, 0, 0, fmt.Errorf("internal node with %d children", n)
		}
		var ld, minK, maxK uint64
		var leafDepth int
		for i := uint64(0); i < n; i++ {
			kid := m.ReadU64(addr + ndKid0 + 8*i)
			d, lo, hi, err := walk(kid, depth+1)
			if err != nil {
				return 0, 0, 0, err
			}
			if i == 0 {
				leafDepth, minK = d, lo
			} else {
				sep := m.ReadU64(addr + ndKey0 + 8*(i-1))
				if ld >= sep {
					return 0, 0, 0, fmt.Errorf("separator %d not above left max %d", sep, ld)
				}
				if lo < sep {
					return 0, 0, 0, fmt.Errorf("separator %d above right min %d", sep, lo)
				}
				if d != leafDepth {
					return 0, 0, 0, fmt.Errorf("uneven leaf depth %d vs %d", d, leafDepth)
				}
			}
			ld = hi
			maxK = hi
		}
		return leafDepth, minK, maxK, nil
	}
	if root != 0 {
		if _, _, _, err := walk(root, 0); err != nil {
			return err
		}
	}
	if leaves != count {
		return fmt.Errorf("walked %d leaves, manifest says %d", leaves, count)
	}
	return nil
}
