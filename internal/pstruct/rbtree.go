package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/splitmix"
	"specpersist/internal/txn"
)

// Red-black node layout (one 64-byte line). The tree is a left-leaning
// red-black tree (the 2-3 variant): red links lean left, no node has two
// red links, and every root-to-leaf path has the same number of black
// links. Avoiding parent pointers keeps rebalancing writes confined to a
// bounded neighbourhood of the search path, which bounds the full-logging
// write set.
//
//	[0]  key
//	[8]  value
//	[16] left child (0 = nil, black)
//	[24] right child
//	[32] color (1 red, 0 black)
const (
	rbKey   = 0
	rbValue = 8
	rbLeft  = 16
	rbRight = 24
	rbColor = 32

	rbBlack = 0
	rbRed   = 1
)

// RBTree is the persistent red-black tree benchmark (RT), using full
// logging: before any modification the transaction logs the root-to-leaf
// path (including the successor spine for deletions) and, conservatively,
// the near descendants of every path node that rebalancing rotations and
// color flips may touch.
type RBTree struct {
	base
	hdr uint64 // [0] root, [8] count
}

// NewRBTree creates an empty tree. mgr may be nil for the baseline variant.
func NewRBTree(env *exec.Env, mgr *txn.Manager) *RBTree {
	t := &RBTree{base: base{env: env, mgr: mgr}}
	t.hdr = env.AllocLines(1)
	return t
}

// Name returns the benchmark abbreviation.
func (t *RBTree) Name() string { return "RT" }

// Size returns the number of nodes.
func (t *RBTree) Size() int { return int(t.env.M.ReadU64(t.hdr + 8)) }

// Contains reports whether key is in the tree.
func (t *RBTree) Contains(key uint64) bool {
	cur, dep := t.ld(t.hdr+0, isa.NoReg)
	for cur != 0 {
		k, kr := t.ld(cur+rbKey, dep)
		t.cmp(kr)
		if k == key {
			return true
		}
		if key < k {
			cur, dep = t.ld(cur+rbLeft, dep)
		} else {
			cur, dep = t.ld(cur+rbRight, dep)
		}
	}
	return false
}

// isRed reads a node's color; nil links are black.
func (t *RBTree) isRed(addr uint64, dep isa.Reg) bool {
	if addr == 0 {
		return false
	}
	c, cr := t.ld(addr+rbColor, dep)
	t.cmp(cr)
	return c == rbRed
}

// Apply deletes key if present, inserts it otherwise, as one failure-safe
// fully logged transaction.
func (t *RBTree) Apply(key uint64) {
	path, found := t.searchPath(key)
	tx := t.begin()
	tx.Log(t.hdr, 16, isa.NoReg)
	// Rotations and color flips at a path node can modify descendants up
	// to two levels below it on insert and three levels below it on
	// delete (a moveRedLeft double rotation lifts a great-grandchild).
	depth := 2
	if found {
		depth = 3
	}
	for _, a := range path {
		t.logSubtree(tx, a, depth, isa.NoReg)
	}
	tx.SetLogged()

	root := t.env.M.ReadU64(t.hdr + 0)
	count, cr := t.ld(t.hdr+8, isa.NoReg)
	var newRoot uint64
	if found {
		// LLRB delete wants a red root unless a child is red.
		if root != 0 && !t.isRed(t.env.M.ReadU64(root+rbLeft), isa.NoReg) &&
			!t.isRed(t.env.M.ReadU64(root+rbRight), isa.NoReg) {
			t.setColor(tx, root, rbRed, isa.NoReg)
		}
		newRoot = t.remove(tx, root, key, isa.NoReg)
		t.st(tx, t.hdr+8, count-1, t.cmp(cr), isa.NoReg)
	} else {
		newRoot = t.insert(tx, root, key, isa.NoReg)
		t.st(tx, t.hdr+8, count+1, t.cmp(cr), isa.NoReg)
	}
	if newRoot != 0 && t.env.M.ReadU64(newRoot+rbColor) == rbRed {
		t.setColor(tx, newRoot, rbBlack, isa.NoReg)
	}
	if newRoot != root {
		t.st(tx, t.hdr+0, newRoot, isa.NoReg, isa.NoReg)
	}
	tx.Commit()
}

// searchPath walks toward key, extending with the successor (minimum of the
// right subtree) spine when the key is found, since LLRB deletion replaces
// the victim with its successor and deletes along that spine.
func (t *RBTree) searchPath(key uint64) (path []uint64, found bool) {
	cur, dep := t.ld(t.hdr+0, isa.NoReg)
	for cur != 0 {
		path = append(path, cur)
		k, kr := t.ld(cur+rbKey, dep)
		t.cmp(kr)
		if k == key {
			s, sdep := t.ld(cur+rbRight, dep)
			for s != 0 {
				path = append(path, s)
				s, sdep = t.ld(s+rbLeft, sdep)
			}
			return path, true
		}
		if key < k {
			cur, dep = t.ld(cur+rbLeft, dep)
		} else {
			cur, dep = t.ld(cur+rbRight, dep)
		}
	}
	return path, false
}

// logSubtree logs addr and its descendants down to the given depth.
func (t *RBTree) logSubtree(tx *txn.Tx, addr uint64, depth int, dep isa.Reg) {
	if addr == 0 {
		return
	}
	tx.Log(addr, mem.LineSize, dep)
	if depth == 0 {
		return
	}
	l, lr := t.ld(addr+rbLeft, dep)
	r, rr := t.ld(addr+rbRight, dep)
	t.logSubtree(tx, l, depth-1, lr)
	t.logSubtree(tx, r, depth-1, rr)
}

func (t *RBTree) setColor(tx *txn.Tx, addr uint64, color uint64, dep isa.Reg) {
	t.st(tx, addr+rbColor, color, isa.NoReg, dep)
}

// rotateLeft rotates addr with its right child; the new root takes addr's
// color and addr becomes red.
func (t *RBTree) rotateLeft(tx *txn.Tx, addr uint64, dep isa.Reg) uint64 {
	x, xr := t.ld(addr+rbRight, dep)
	xl, xlr := t.ld(x+rbLeft, xr)
	t.st(tx, addr+rbRight, xl, xlr, dep)
	t.st(tx, x+rbLeft, addr, dep, xr)
	c, cr := t.ld(addr+rbColor, dep)
	t.st(tx, x+rbColor, c, cr, xr)
	t.setColor(tx, addr, rbRed, dep)
	return x
}

// rotateRight rotates addr with its left child.
func (t *RBTree) rotateRight(tx *txn.Tx, addr uint64, dep isa.Reg) uint64 {
	x, xr := t.ld(addr+rbLeft, dep)
	xrc, xrr := t.ld(x+rbRight, xr)
	t.st(tx, addr+rbLeft, xrc, xrr, dep)
	t.st(tx, x+rbRight, addr, dep, xr)
	c, cr := t.ld(addr+rbColor, dep)
	t.st(tx, x+rbColor, c, cr, xr)
	t.setColor(tx, addr, rbRed, dep)
	return x
}

// flipColors inverts addr's and both children's colors.
func (t *RBTree) flipColors(tx *txn.Tx, addr uint64, dep isa.Reg) {
	for _, off := range []uint64{rbColor} {
		c, cr := t.ld(addr+off, dep)
		t.st(tx, addr+off, c^1, t.cmp(cr), dep)
	}
	for _, side := range []uint64{rbLeft, rbRight} {
		ch, chr := t.ld(addr+side, dep)
		if ch == 0 {
			continue
		}
		c, cr := t.ld(ch+rbColor, chr)
		t.st(tx, ch+rbColor, c^1, t.cmp(cr), chr)
	}
}

// fixUp restores the left-leaning invariants at addr.
func (t *RBTree) fixUp(tx *txn.Tx, addr uint64, dep isa.Reg) uint64 {
	r, rr := t.ld(addr+rbRight, dep)
	if t.isRed(r, rr) {
		addr = t.rotateLeft(tx, addr, dep)
	}
	l, lr := t.ld(addr+rbLeft, dep)
	if t.isRed(l, lr) {
		ll, llr := t.ld(l+rbLeft, lr)
		if t.isRed(ll, llr) {
			addr = t.rotateRight(tx, addr, dep)
		}
	}
	l, lr = t.ld(addr+rbLeft, dep)
	r, rr = t.ld(addr+rbRight, dep)
	if t.isRed(l, lr) && t.isRed(r, rr) {
		t.flipColors(tx, addr, dep)
	}
	return addr
}

// insert adds key under addr and returns the new subtree root.
func (t *RBTree) insert(tx *txn.Tx, addr, key uint64, dep isa.Reg) uint64 {
	if addr == 0 {
		n := t.allocNode(tx)
		t.st(tx, n+rbKey, key, isa.NoReg, isa.NoReg)
		t.st(tx, n+rbValue, splitmix.Mix(key), isa.NoReg, isa.NoReg)
		t.st(tx, n+rbColor, rbRed, isa.NoReg, isa.NoReg)
		return n
	}
	k, kr := t.ld(addr+rbKey, dep)
	t.cmp(kr)
	switch {
	case key < k:
		l, lr := t.ld(addr+rbLeft, dep)
		nl := t.insert(tx, l, key, lr)
		if nl != l {
			t.st(tx, addr+rbLeft, nl, isa.NoReg, dep)
		}
	case key > k:
		r, rr := t.ld(addr+rbRight, dep)
		nr := t.insert(tx, r, key, rr)
		if nr != r {
			t.st(tx, addr+rbRight, nr, isa.NoReg, dep)
		}
	default:
		return addr // already present (not hit by Apply)
	}
	return t.fixUp(tx, addr, dep)
}

// moveRedLeft ensures addr's left child or its left grandchild is red
// before descending left during deletion.
func (t *RBTree) moveRedLeft(tx *txn.Tx, addr uint64, dep isa.Reg) uint64 {
	t.flipColors(tx, addr, dep)
	r, rr := t.ld(addr+rbRight, dep)
	rl, rlr := t.ld(r+rbLeft, rr)
	if t.isRed(rl, rlr) {
		nr := t.rotateRight(tx, r, rr)
		t.st(tx, addr+rbRight, nr, isa.NoReg, dep)
		addr = t.rotateLeft(tx, addr, dep)
		t.flipColors(tx, addr, dep)
	}
	return addr
}

// moveRedRight ensures addr's right child or its left grandchild is red
// before descending right during deletion.
func (t *RBTree) moveRedRight(tx *txn.Tx, addr uint64, dep isa.Reg) uint64 {
	t.flipColors(tx, addr, dep)
	l, lr := t.ld(addr+rbLeft, dep)
	ll, llr := t.ld(l+rbLeft, lr)
	if t.isRed(ll, llr) {
		addr = t.rotateRight(tx, addr, dep)
		t.flipColors(tx, addr, dep)
	}
	return addr
}

// removeMin deletes the minimum node under addr and returns the new
// subtree root and the removed node's key/value.
func (t *RBTree) removeMin(tx *txn.Tx, addr uint64, dep isa.Reg) (uint64, uint64, uint64) {
	l, lr := t.ld(addr+rbLeft, dep)
	if l == 0 {
		k, _ := t.ld(addr+rbKey, dep)
		v, _ := t.ld(addr+rbValue, dep)
		return 0, k, v
	}
	ll, llr := t.ld(l+rbLeft, lr)
	if !t.isRed(l, lr) && !t.isRed(ll, llr) {
		addr = t.moveRedLeft(tx, addr, dep)
		l, lr = t.ld(addr+rbLeft, dep)
	}
	nl, k, v := t.removeMin(tx, l, lr)
	if nl != l {
		t.st(tx, addr+rbLeft, nl, isa.NoReg, dep)
	}
	return t.fixUp(tx, addr, dep), k, v
}

// remove deletes key under addr (the caller guarantees it exists) and
// returns the new subtree root.
func (t *RBTree) remove(tx *txn.Tx, addr, key uint64, dep isa.Reg) uint64 {
	k, kr := t.ld(addr+rbKey, dep)
	t.cmp(kr)
	if key < k {
		l, lr := t.ld(addr+rbLeft, dep)
		ll, llr := t.ld(l+rbLeft, lr)
		if !t.isRed(l, lr) && !t.isRed(ll, llr) {
			addr = t.moveRedLeft(tx, addr, dep)
			l, lr = t.ld(addr+rbLeft, dep)
		}
		nl := t.remove(tx, l, key, lr)
		if nl != l {
			t.st(tx, addr+rbLeft, nl, isa.NoReg, dep)
		}
		return t.fixUp(tx, addr, dep)
	}
	l, lr := t.ld(addr+rbLeft, dep)
	if t.isRed(l, lr) {
		addr = t.rotateRight(tx, addr, dep)
	}
	k, kr = t.ld(addr+rbKey, dep)
	t.cmp(kr)
	r, rr := t.ld(addr+rbRight, dep)
	if key == k && r == 0 {
		return 0
	}
	rl, rlr := t.ld(r+rbLeft, rr)
	if !t.isRed(r, rr) && !t.isRed(rl, rlr) {
		addr = t.moveRedRight(tx, addr, dep)
		r, rr = t.ld(addr+rbRight, dep)
	}
	k, kr = t.ld(addr+rbKey, dep)
	t.cmp(kr)
	if key == k {
		// Replace with the successor, then delete it from the right
		// subtree.
		nr, sk, sv := t.removeMin(tx, r, rr)
		t.st(tx, addr+rbKey, sk, isa.NoReg, dep)
		t.st(tx, addr+rbValue, sv, isa.NoReg, dep)
		if nr != r {
			t.st(tx, addr+rbRight, nr, isa.NoReg, dep)
		}
	} else {
		nr := t.remove(tx, r, key, rr)
		if nr != r {
			t.st(tx, addr+rbRight, nr, isa.NoReg, dep)
		}
	}
	return t.fixUp(tx, addr, dep)
}

// Check validates the tree: BST order, no right-leaning red links, no two
// consecutive red links, uniform black height, value integrity, and the
// header count.
func (t *RBTree) Check() error {
	m := t.env.M
	var n uint64
	var walk func(addr uint64, lo, hi uint64, hasLo, hasHi bool) (int, error)
	walk = func(addr uint64, lo, hi uint64, hasLo, hasHi bool) (int, error) {
		if addr == 0 {
			return 1, nil
		}
		n++
		k := m.ReadU64(addr + rbKey)
		if hasLo && k <= lo {
			return 0, fmt.Errorf("rbtree: key %d violates lower bound %d", k, lo)
		}
		if hasHi && k >= hi {
			return 0, fmt.Errorf("rbtree: key %d violates upper bound %d", k, hi)
		}
		if v := m.ReadU64(addr + rbValue); v != splitmix.Mix(k) {
			return 0, fmt.Errorf("rbtree: node %d value corrupt", k)
		}
		l := m.ReadU64(addr + rbLeft)
		r := m.ReadU64(addr + rbRight)
		red := m.ReadU64(addr+rbColor) == rbRed
		rightRed := r != 0 && m.ReadU64(r+rbColor) == rbRed
		leftRed := l != 0 && m.ReadU64(l+rbColor) == rbRed
		if rightRed {
			return 0, fmt.Errorf("rbtree: node %d has right-leaning red link", k)
		}
		if red && leftRed {
			return 0, fmt.Errorf("rbtree: node %d has two consecutive red links", k)
		}
		bl, err := walk(l, lo, k, hasLo, true)
		if err != nil {
			return 0, err
		}
		br, err := walk(r, k, hi, true, hasHi)
		if err != nil {
			return 0, err
		}
		if bl != br {
			return 0, fmt.Errorf("rbtree: node %d black height %d vs %d", k, bl, br)
		}
		if red {
			return bl, nil
		}
		return bl + 1, nil
	}
	root := m.ReadU64(t.hdr + 0)
	if root != 0 && m.ReadU64(root+rbColor) == rbRed {
		return fmt.Errorf("rbtree: red root")
	}
	if _, err := walk(root, 0, 0, false, false); err != nil {
		return err
	}
	if count := m.ReadU64(t.hdr + 8); n != count {
		return fmt.Errorf("rbtree: walked %d nodes, header says %d", n, count)
	}
	return nil
}

var _ Structure = (*RBTree)(nil)
