package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/splitmix"
	"specpersist/internal/txn"
)

// AVL node layout (one 64-byte line):
//
//	[0]  key
//	[8]  value
//	[16] left child (0 = nil)
//	[24] right child
//	[32] height (leaf = 1)
const (
	avKey    = 0
	avValue  = 8
	avLeft   = 16
	avRight  = 24
	avHeight = 32
)

// AVL is the persistent AVL-tree benchmark (AT). Updates use the paper's
// full-logging policy (§3.2): before modifying anything, the transaction
// logs the complete root-to-leaf search path, and for deletions also the
// sibling subtree roots that unwind-time rotations may modify, so that no
// additional logging (and no additional persist barriers) is ever needed
// during rebalancing.
type AVL struct {
	base
	hdr uint64 // [0] root, [8] count
}

// NewAVL creates an empty tree. mgr may be nil for the baseline variant.
func NewAVL(env *exec.Env, mgr *txn.Manager) *AVL {
	t := &AVL{base: base{env: env, mgr: mgr}}
	t.hdr = env.AllocLines(1)
	return t
}

// Name returns the benchmark abbreviation.
func (t *AVL) Name() string { return "AT" }

// Size returns the number of nodes.
func (t *AVL) Size() int { return int(t.env.M.ReadU64(t.hdr + 8)) }

// Contains reports whether key is in the tree.
func (t *AVL) Contains(key uint64) bool {
	cur, dep := t.ld(t.hdr+0, isa.NoReg)
	for cur != 0 {
		k, kr := t.ld(cur+avKey, dep)
		t.cmp(kr)
		if k == key {
			return true
		}
		if key < k {
			cur, dep = t.ld(cur+avLeft, dep)
		} else {
			cur, dep = t.ld(cur+avRight, dep)
		}
	}
	return false
}

// height reads a node's height; nil subtrees have height 0.
func (t *AVL) height(addr uint64, dep isa.Reg) (uint64, isa.Reg) {
	if addr == 0 {
		return 0, isa.NoReg
	}
	return t.ld(addr+avHeight, dep)
}

// Apply deletes key if present, inserts it otherwise, as one failure-safe
// transaction with full logging.
func (t *AVL) Apply(key uint64) {
	// Pass 1: search, collecting the path (and for deletions the successor
	// extension), and log the conservative write set.
	path, found := t.searchPath(key)
	tx := t.begin()
	tx.Log(t.hdr, 16, isa.NoReg)
	for _, a := range path {
		tx.Log(a, mem.LineSize, isa.NoReg)
	}
	if found {
		// Deletions may rotate against the sibling subtree at every level
		// of the unwind: log each path node's children and the sibling's
		// children (the rotation's third participant).
		t.logRebalanceSet(tx, path)
	}
	tx.SetLogged()

	// Pass 2: perform the update (cache-hot re-traversal).
	root := t.env.M.ReadU64(t.hdr + 0)
	var newRoot uint64
	if found {
		newRoot = t.remove(tx, root, key, isa.NoReg)
		count, cr := t.ld(t.hdr+8, isa.NoReg)
		t.st(tx, t.hdr+8, count-1, t.cmp(cr), isa.NoReg)
	} else {
		newRoot = t.insert(tx, root, key, isa.NoReg)
		count, cr := t.ld(t.hdr+8, isa.NoReg)
		t.st(tx, t.hdr+8, count+1, t.cmp(cr), isa.NoReg)
	}
	if newRoot != root {
		t.st(tx, t.hdr+0, newRoot, isa.NoReg, isa.NoReg)
	}
	tx.Commit()
}

// searchPath walks from the root toward key, returning every visited node.
// If the key is found and the node has two children, the path is extended
// with the in-order successor chain (whose nodes a deletion modifies).
func (t *AVL) searchPath(key uint64) (path []uint64, found bool) {
	cur, dep := t.ld(t.hdr+0, isa.NoReg)
	for cur != 0 {
		path = append(path, cur)
		k, kr := t.ld(cur+avKey, dep)
		t.cmp(kr)
		if k == key {
			l, lr := t.ld(cur+avLeft, dep)
			r, _ := t.ld(cur+avRight, dep)
			if l != 0 && r != 0 {
				// Successor chain: right child, then left spine.
				s, sdep := r, lr
				for s != 0 {
					path = append(path, s)
					s, sdep = t.ld(s+avLeft, sdep)
				}
			}
			return path, true
		}
		if key < k {
			cur, dep = t.ld(cur+avLeft, dep)
		} else {
			cur, dep = t.ld(cur+avRight, dep)
		}
	}
	return path, false
}

// logRebalanceSet conservatively logs, for every path node, both children
// and both grandchildren through each child: deletion rebalancing rotates a
// path node with its sibling subtree and possibly the sibling's taller
// child.
func (t *AVL) logRebalanceSet(tx *txn.Tx, path []uint64) {
	for _, z := range path {
		for _, off := range []uint64{avLeft, avRight} {
			c, cr := t.ld(z+off, isa.NoReg)
			if c == 0 {
				continue
			}
			tx.Log(c, mem.LineSize, cr)
			for _, off2 := range []uint64{avLeft, avRight} {
				gc, gr := t.ld(c+off2, cr)
				if gc != 0 {
					tx.Log(gc, mem.LineSize, gr)
				}
			}
		}
	}
}

// insert adds key under addr and returns the new subtree root.
func (t *AVL) insert(tx *txn.Tx, addr, key uint64, dep isa.Reg) uint64 {
	if addr == 0 {
		n := t.allocNode(tx)
		t.st(tx, n+avKey, key, isa.NoReg, isa.NoReg)
		t.st(tx, n+avValue, splitmix.Mix(key), isa.NoReg, isa.NoReg)
		t.st(tx, n+avHeight, 1, isa.NoReg, isa.NoReg)
		return n
	}
	k, kr := t.ld(addr+avKey, dep)
	t.cmp(kr)
	switch {
	case key < k:
		l, lr := t.ld(addr+avLeft, dep)
		nl := t.insert(tx, l, key, lr)
		if nl != l {
			t.st(tx, addr+avLeft, nl, isa.NoReg, dep)
		}
	case key > k:
		r, rr := t.ld(addr+avRight, dep)
		nr := t.insert(tx, r, key, rr)
		if nr != r {
			t.st(tx, addr+avRight, nr, isa.NoReg, dep)
		}
	default:
		return addr // already present (not hit by Apply)
	}
	return t.rebalance(tx, addr, dep)
}

// remove deletes key under addr and returns the new subtree root.
func (t *AVL) remove(tx *txn.Tx, addr, key uint64, dep isa.Reg) uint64 {
	if addr == 0 {
		return 0 // not present (not hit by Apply)
	}
	k, kr := t.ld(addr+avKey, dep)
	t.cmp(kr)
	switch {
	case key < k:
		l, lr := t.ld(addr+avLeft, dep)
		nl := t.remove(tx, l, key, lr)
		if nl != l {
			t.st(tx, addr+avLeft, nl, isa.NoReg, dep)
		}
	case key > k:
		r, rr := t.ld(addr+avRight, dep)
		nr := t.remove(tx, r, key, rr)
		if nr != r {
			t.st(tx, addr+avRight, nr, isa.NoReg, dep)
		}
	default:
		l, _ := t.ld(addr+avLeft, dep)
		r, rr := t.ld(addr+avRight, dep)
		if l == 0 || r == 0 {
			if l != 0 {
				return l
			}
			return r
		}
		// Two children: replace with the in-order successor's key/value,
		// then delete the successor from the right subtree.
		succ, sdep := r, rr
		for {
			sl, slr := t.ld(succ+avLeft, sdep)
			if sl == 0 {
				break
			}
			succ, sdep = sl, slr
		}
		sk, skr := t.ld(succ+avKey, sdep)
		sv, svr := t.ld(succ+avValue, sdep)
		t.st(tx, addr+avKey, sk, skr, dep)
		t.st(tx, addr+avValue, sv, svr, dep)
		nr := t.remove(tx, r, sk, rr)
		if nr != r {
			t.st(tx, addr+avRight, nr, isa.NoReg, dep)
		}
	}
	return t.rebalance(tx, addr, dep)
}

// rebalance restores the AVL property at addr and returns the (possibly
// new) subtree root.
func (t *AVL) rebalance(tx *txn.Tx, addr uint64, dep isa.Reg) uint64 {
	l, lr := t.ld(addr+avLeft, dep)
	r, rr := t.ld(addr+avRight, dep)
	hl, hlr := t.height(l, lr)
	hr, hrr := t.height(r, rr)
	t.cmp(hlr, hrr)
	switch {
	case hl > hr+1: // left-heavy
		yl, ylr := t.ld(l+avLeft, lr)
		yr, yrr := t.ld(l+avRight, lr)
		hyl, a := t.height(yl, ylr)
		hyr, b := t.height(yr, yrr)
		t.cmp(a, b)
		if hyl < hyr {
			nl := t.rotateLeft(tx, l, lr)
			t.st(tx, addr+avLeft, nl, isa.NoReg, dep)
		}
		return t.rotateRight(tx, addr, dep)
	case hr > hl+1: // right-heavy
		yl, ylr := t.ld(r+avLeft, rr)
		yr, yrr := t.ld(r+avRight, rr)
		hyl, a := t.height(yl, ylr)
		hyr, b := t.height(yr, yrr)
		t.cmp(a, b)
		if hyr < hyl {
			nr := t.rotateRight(tx, r, rr)
			t.st(tx, addr+avRight, nr, isa.NoReg, dep)
		}
		return t.rotateLeft(tx, addr, dep)
	}
	t.updateHeight(tx, addr, dep)
	return addr
}

// updateHeight recomputes a node's height from its children.
func (t *AVL) updateHeight(tx *txn.Tx, addr uint64, dep isa.Reg) {
	l, lr := t.ld(addr+avLeft, dep)
	r, rr := t.ld(addr+avRight, dep)
	hl, a := t.height(l, lr)
	hr, b := t.height(r, rr)
	h := max(hl, hr) + 1
	if cur := t.env.M.ReadU64(addr + avHeight); cur != h {
		t.st(tx, addr+avHeight, h, t.cmp(a, b), dep)
	}
}

// rotateRight rotates addr with its left child and returns the new root.
func (t *AVL) rotateRight(tx *txn.Tx, addr uint64, dep isa.Reg) uint64 {
	y, yr := t.ld(addr+avLeft, dep)
	yrc, yrr := t.ld(y+avRight, yr)
	t.st(tx, addr+avLeft, yrc, yrr, dep)
	t.st(tx, y+avRight, addr, dep, yr)
	t.updateHeight(tx, addr, dep)
	t.updateHeight(tx, y, yr)
	return y
}

// rotateLeft rotates addr with its right child and returns the new root.
func (t *AVL) rotateLeft(tx *txn.Tx, addr uint64, dep isa.Reg) uint64 {
	y, yr := t.ld(addr+avRight, dep)
	ylc, ylr := t.ld(y+avLeft, yr)
	t.st(tx, addr+avRight, ylc, ylr, dep)
	t.st(tx, y+avLeft, addr, dep, yr)
	t.updateHeight(tx, addr, dep)
	t.updateHeight(tx, y, yr)
	return y
}

// Check validates the tree: BST order, correct heights, AVL balance, and a
// node count matching the header.
func (t *AVL) Check() error {
	m := t.env.M
	var n uint64
	var walk func(addr uint64, lo, hi uint64, hasLo, hasHi bool) (uint64, error)
	walk = func(addr uint64, lo, hi uint64, hasLo, hasHi bool) (uint64, error) {
		if addr == 0 {
			return 0, nil
		}
		n++
		k := m.ReadU64(addr + avKey)
		if hasLo && k <= lo {
			return 0, fmt.Errorf("avl: key %d violates lower bound %d", k, lo)
		}
		if hasHi && k >= hi {
			return 0, fmt.Errorf("avl: key %d violates upper bound %d", k, hi)
		}
		if v := m.ReadU64(addr + avValue); v != splitmix.Mix(k) {
			return 0, fmt.Errorf("avl: node %d value corrupt", k)
		}
		hl, err := walk(m.ReadU64(addr+avLeft), lo, k, hasLo, true)
		if err != nil {
			return 0, err
		}
		hr, err := walk(m.ReadU64(addr+avRight), k, hi, true, hasHi)
		if err != nil {
			return 0, err
		}
		if hl > hr+1 || hr > hl+1 {
			return 0, fmt.Errorf("avl: node %d unbalanced (%d vs %d)", k, hl, hr)
		}
		h := max(hl, hr) + 1
		if got := m.ReadU64(addr + avHeight); got != h {
			return 0, fmt.Errorf("avl: node %d height %d, want %d", k, got, h)
		}
		return h, nil
	}
	if _, err := walk(m.ReadU64(t.hdr+0), 0, 0, false, false); err != nil {
		return err
	}
	if count := m.ReadU64(t.hdr + 8); n != count {
		return fmt.Errorf("avl: walked %d nodes, header says %d", n, count)
	}
	return nil
}

var _ Structure = (*AVL)(nil)
