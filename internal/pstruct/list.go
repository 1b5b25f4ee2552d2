package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/splitmix"
	"specpersist/internal/txn"
)

// Linked-list node layout (one 64-byte line):
//
//	[0]  key
//	[8]  value
//	[16] next (0 = end of list)
const (
	llKey   = 0
	llValue = 8
	llNext  = 16
)

// List is the persistent sorted singly-linked list benchmark (LL).
type List struct {
	base
	hdr uint64 // header line: [0] head pointer, [8] count
}

// NewList creates an empty list. mgr may be nil for the non-transactional
// baseline variant.
func NewList(env *exec.Env, mgr *txn.Manager) *List {
	l := &List{base: base{env: env, mgr: mgr}}
	l.hdr = env.AllocLines(1)
	return l
}

// Name returns the benchmark abbreviation.
func (l *List) Name() string { return "LL" }

// Size returns the number of nodes.
func (l *List) Size() int { return int(l.env.M.ReadU64(l.hdr + 8)) }

// Contains reports whether key is in the list (functional check, untraced
// path shares the traced search).
func (l *List) Contains(key uint64) bool {
	_, _, found, _ := l.search(key)
	return found
}

// search walks the list emitting pointer-chasing loads. It returns the
// address of the link slot pointing at the first node with nodeKey >= key
// (the header's head slot if the list is empty), that node's address (0 if
// none), whether the key was found, and the dependence register of the
// link-slot pointer value.
func (l *List) search(key uint64) (linkSlot, cur uint64, found bool, dep isa.Reg) {
	linkSlot = l.hdr + 0
	cur, dep = l.ld(linkSlot, isa.NoReg)
	for cur != 0 {
		k, kr := l.ld(cur+llKey, dep)
		l.cmp(kr)
		if k >= key {
			return linkSlot, cur, k == key, dep
		}
		linkSlot = cur + llNext
		cur, dep = l.ld(linkSlot, dep)
	}
	return linkSlot, 0, false, dep
}

// Apply searches for key; if present the node is deleted, otherwise a node
// is inserted, as one failure-safe transaction.
func (l *List) Apply(key uint64) {
	linkSlot, cur, found, dep := l.search(key)
	tx := l.begin()
	if found {
		// Log the line holding the link we rewrite and the header line
		// holding the count. The victim itself is not modified (deleted
		// nodes are not reclaimed, §5.2).
		tx.Log(linkSlot, 8, dep)
		tx.Log(l.hdr, 16, isa.NoReg)
		tx.SetLogged()
		next, nr := l.ld(cur+llNext, dep)
		l.st(tx, linkSlot, next, nr, dep)
		count, cr := l.ld(l.hdr+8, isa.NoReg)
		l.st(tx, l.hdr+8, count-1, l.cmp(cr), isa.NoReg)
		tx.Commit()
		return
	}
	tx.Log(linkSlot, 8, dep)
	tx.Log(l.hdr, 16, isa.NoReg)
	tx.SetLogged()
	n := l.allocNode(tx)
	l.st(tx, n+llKey, key, isa.NoReg, isa.NoReg)
	l.st(tx, n+llValue, splitmix.Mix(key), isa.NoReg, isa.NoReg)
	l.st(tx, n+llNext, cur, dep, isa.NoReg)
	l.st(tx, linkSlot, n, isa.NoReg, dep)
	count, cr := l.ld(l.hdr+8, isa.NoReg)
	l.st(tx, l.hdr+8, count+1, l.cmp(cr), isa.NoReg)
	tx.Commit()
}

// Check validates the list: strictly ascending keys, no cycles, and a
// header count that matches the walked length.
func (l *List) Check() error {
	m := l.env.M
	count := m.ReadU64(l.hdr + 8)
	cur := m.ReadU64(l.hdr)
	var prev uint64
	first := true
	var n uint64
	for cur != 0 {
		if n > count+1 {
			return fmt.Errorf("list: cycle or count mismatch after %d nodes", n)
		}
		k := m.ReadU64(cur + llKey)
		if !first && k <= prev {
			return fmt.Errorf("list: keys not ascending: %d after %d", k, prev)
		}
		if v := m.ReadU64(cur + llValue); v != splitmix.Mix(k) {
			return fmt.Errorf("list: node %d value corrupt", k)
		}
		prev, first = k, false
		cur = m.ReadU64(cur + llNext)
		n++
	}
	if n != count {
		return fmt.Errorf("list: walked %d nodes, header says %d", n, count)
	}
	return nil
}

var _ Structure = (*List)(nil)
