package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/splitmix"
	"specpersist/internal/txn"
)

// 2-3 B-tree node layout (one 64-byte line), matching the paper's Figures
// 4-5: data lives in the leaves, internal nodes hold 2-3 children and 1-2
// routing keys (keys[i] = smallest key in children[i+1]'s subtree at the
// time the separator was created).
//
//	[0]  flags (1 = leaf)
//	[8]  n (number of children, 2..3; unused for leaves)
//	[16] keys[0] / leaf key
//	[24] keys[1] / leaf value
//	[32] children[0]
//	[40] children[1]
//	[48] children[2]
const (
	btFlags = 0
	btN     = 8
	btKey0  = 16
	btKey1  = 24
	btKid0  = 32
)

// BTree is the persistent 2-3 B-tree benchmark (BT), using full logging:
// the whole root-to-leaf path is logged before any modification, plus (for
// deletions) every child of each internal path node, since underflow
// repair borrows from or merges with siblings.
type BTree struct {
	base
	hdr         uint64 // [0] root, [8] count (leaves)
	incremental bool   // insert-logging policy (see btree_incremental.go)
}

// NewBTree creates an empty tree. mgr may be nil for the baseline variant.
func NewBTree(env *exec.Env, mgr *txn.Manager) *BTree {
	t := &BTree{base: base{env: env, mgr: mgr}}
	t.hdr = env.AllocLines(1)
	return t
}

// Name returns the benchmark abbreviation.
func (t *BTree) Name() string { return "BT" }

// Size returns the number of stored keys (leaves).
func (t *BTree) Size() int { return int(t.env.M.ReadU64(t.hdr + 8)) }

// btNode is a decoded node.
type btNode struct {
	addr uint64
	leaf bool
	n    uint64 // children (internal)
	keys [2]uint64
	kids [3]uint64
	dep  isa.Reg
}

// readNode loads a node's fields, emitting loads dependent on dep.
func (t *BTree) readNode(addr uint64, dep isa.Reg) btNode {
	nd := btNode{addr: addr}
	var fr isa.Reg
	var flags uint64
	flags, fr = t.ld(addr+btFlags, dep)
	nd.leaf = flags == 1
	nd.dep = fr
	if nd.leaf {
		nd.keys[0], _ = t.ld(addr+btKey0, fr)
		nd.keys[1], _ = t.ld(addr+btKey1, fr)
		return nd
	}
	nd.n, _ = t.ld(addr+btN, fr)
	nd.keys[0], _ = t.ld(addr+btKey0, fr)
	nd.keys[1], _ = t.ld(addr+btKey1, fr)
	for i := 0; i < int(nd.n); i++ {
		nd.kids[i], _ = t.ld(addr+btKid0+uint64(8*i), fr)
	}
	return nd
}

// writeLeaf initializes or rewrites a leaf.
func (t *BTree) writeLeaf(tx *txn.Tx, addr, key, value uint64, dep isa.Reg) {
	t.st(tx, addr+btFlags, 1, isa.NoReg, dep)
	t.st(tx, addr+btKey0, key, isa.NoReg, dep)
	t.st(tx, addr+btKey1, value, isa.NoReg, dep)
}

// writeInternal rewrites an internal node's routing state.
func (t *BTree) writeInternal(tx *txn.Tx, nd btNode) {
	t.st(tx, nd.addr+btFlags, 0, isa.NoReg, nd.dep)
	t.st(tx, nd.addr+btN, nd.n, isa.NoReg, nd.dep)
	t.st(tx, nd.addr+btKey0, nd.keys[0], isa.NoReg, nd.dep)
	t.st(tx, nd.addr+btKey1, nd.keys[1], isa.NoReg, nd.dep)
	for i := 0; i < int(nd.n); i++ {
		t.st(tx, nd.addr+btKid0+uint64(8*i), nd.kids[i], isa.NoReg, nd.dep)
	}
}

// route returns the child index to follow for key.
func (t *BTree) route(nd btNode, key uint64) int {
	t.cmp(nd.dep)
	if key < nd.keys[0] {
		return 0
	}
	if nd.n == 2 || key < nd.keys[1] {
		return 1
	}
	return 2
}

// Contains reports whether key is stored.
func (t *BTree) Contains(key uint64) bool {
	cur, dep := t.ld(t.hdr+0, isa.NoReg)
	for cur != 0 {
		nd := t.readNode(cur, dep)
		if nd.leaf {
			t.cmp(nd.dep)
			return nd.keys[0] == key
		}
		cur = nd.kids[t.route(nd, key)]
		dep = nd.dep
	}
	return false
}

// searchPath returns the visited nodes and whether the key is present.
func (t *BTree) searchPath(key uint64) (path []uint64, found bool) {
	cur, dep := t.ld(t.hdr+0, isa.NoReg)
	for cur != 0 {
		path = append(path, cur)
		nd := t.readNode(cur, dep)
		if nd.leaf {
			t.cmp(nd.dep)
			return path, nd.keys[0] == key
		}
		cur = nd.kids[t.route(nd, key)]
		dep = nd.dep
	}
	return path, false
}

// Apply deletes key if present, inserts it otherwise, as one failure-safe
// transaction under the configured logging policy.
func (t *BTree) Apply(key uint64) {
	path, found := t.searchPath(key)
	if t.incremental && !found {
		t.applyIncremental(key, path)
		return
	}
	tx := t.begin()
	tx.Log(t.hdr, 16, isa.NoReg)
	for _, a := range path {
		tx.Log(a, mem.LineSize, isa.NoReg)
	}
	if found {
		// Underflow repair borrows from/merges with siblings: log every
		// child of each internal path node.
		for _, a := range path {
			nd := t.readNode(a, isa.NoReg)
			if nd.leaf {
				continue
			}
			for i := 0; i < int(nd.n); i++ {
				tx.Log(nd.kids[i], mem.LineSize, nd.dep)
			}
		}
	}
	tx.SetLogged()

	root := t.env.M.ReadU64(t.hdr + 0)
	count, cr := t.ld(t.hdr+8, isa.NoReg)
	switch {
	case root == 0:
		// Empty tree: the new leaf becomes the root.
		n := t.allocNode(tx)
		t.writeLeaf(tx, n, key, splitmix.Mix(key), isa.NoReg)
		t.st(tx, t.hdr+0, n, isa.NoReg, isa.NoReg)
		t.st(tx, t.hdr+8, count+1, t.cmp(cr), isa.NoReg)
	case found:
		nd := t.readNode(root, isa.NoReg)
		if nd.leaf {
			t.st(tx, t.hdr+0, 0, isa.NoReg, isa.NoReg)
		} else if t.remove(tx, root, key, isa.NoReg) {
			// Root underflowed to a single child: shrink the tree.
			sole, sr := t.ld(root+btKid0, isa.NoReg)
			t.st(tx, t.hdr+0, sole, sr, isa.NoReg)
		}
		t.st(tx, t.hdr+8, count-1, t.cmp(cr), isa.NoReg)
	default:
		sep, right := t.insert(tx, root, key, isa.NoReg)
		if right != 0 {
			nr := t.allocNode(tx)
			t.writeInternal(tx, btNode{addr: nr, n: 2, keys: [2]uint64{sep}, kids: [3]uint64{root, right}})
			t.st(tx, t.hdr+0, nr, isa.NoReg, isa.NoReg)
		}
		t.st(tx, t.hdr+8, count+1, t.cmp(cr), isa.NoReg)
	}
	tx.Commit()
}

// insert adds key under addr. If the node splits, it returns the promoted
// separator and the new right sibling (0 otherwise).
func (t *BTree) insert(tx *txn.Tx, addr, key uint64, dep isa.Reg) (uint64, uint64) {
	nd := t.readNode(addr, dep)
	if nd.leaf {
		t.cmp(nd.dep)
		// Split the leaf position: keep the smaller key in place so the
		// parent's existing pointer stays valid; the larger key moves to a
		// fresh right leaf whose minimum is the promoted separator.
		right := t.allocNode(tx)
		if key < nd.keys[0] {
			t.writeLeaf(tx, right, nd.keys[0], nd.keys[1], nd.dep)
			t.writeLeaf(tx, addr, key, splitmix.Mix(key), nd.dep)
			return nd.keys[0], right
		}
		t.writeLeaf(tx, right, key, splitmix.Mix(key), nd.dep)
		return key, right
	}
	i := t.route(nd, key)
	sep, right := t.insert(tx, nd.kids[i], key, nd.dep)
	if right == 0 {
		return 0, 0
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
		t.writeInternal(tx, nd)
		return 0, 0
	}
	// Full node: order the four children and three separators, keep the
	// first two here, move the last two to a fresh node, promote the
	// middle separator.
	var c [4]uint64
	var s [3]uint64
	copy(c[:], nd.kids[:])
	copy(s[:], nd.keys[:])
	// Insert right after i; separators shift with it.
	for j := 3; j > i+1; j-- {
		c[j] = c[j-1]
	}
	c[i+1] = right
	for j := 2; j > i; j-- {
		s[j] = s[j-1]
	}
	s[i] = sep
	left := btNode{addr: addr, n: 2, keys: [2]uint64{s[0]}, kids: [3]uint64{c[0], c[1]}, dep: nd.dep}
	t.writeInternal(tx, left)
	rn := t.allocNode(tx)
	t.writeInternal(tx, btNode{addr: rn, n: 2, keys: [2]uint64{s[2]}, kids: [3]uint64{c[2], c[3]}})
	return s[1], rn
}

// remove deletes key under internal node addr; the caller guarantees the
// key exists. It returns true if addr underflowed to a single child (left
// in children[0]).
func (t *BTree) remove(tx *txn.Tx, addr, key uint64, dep isa.Reg) bool {
	nd := t.readNode(addr, dep)
	i := t.route(nd, key)
	child := t.readNode(nd.kids[i], nd.dep)
	if child.leaf {
		// Drop the leaf and the separator adjacent to it.
		t.dropChild(&nd, i)
		t.writeInternal(tx, nd)
		return nd.n == 1
	}
	if !t.remove(tx, nd.kids[i], key, nd.dep) {
		return false
	}
	// Child underflowed: its single remaining grandchild is in kids[0].
	under := t.readNode(nd.kids[i], nd.dep)
	var j int
	if i > 0 {
		j = i - 1
	} else {
		j = i + 1
	}
	sib := t.readNode(nd.kids[j], nd.dep)
	if sib.n == 3 {
		t.borrow(tx, &nd, &under, &sib, i, j)
		return false
	}
	t.merge(tx, &nd, &under, &sib, i, j)
	return nd.n == 1
}

// dropChild removes children[i] (and the separator adjacent to it) from nd.
func (t *BTree) dropChild(nd *btNode, i int) {
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
// node, updating the separators in the parent.
func (t *BTree) borrow(tx *txn.Tx, nd, under, sib *btNode, i, j int) {
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
	t.writeInternal(tx, *under)
	t.writeInternal(tx, *sib)
	t.writeInternal(tx, *nd)
}

// merge folds the underflowed node into its 2-child sibling and removes it
// from the parent.
func (t *BTree) merge(tx *txn.Tx, nd, under, sib *btNode, i, j int) {
	if j == i-1 {
		// Merge under into the left sibling.
		sib.kids[2] = under.kids[0]
		sib.keys[1] = nd.keys[i-1]
		sib.n = 3
		t.writeInternal(tx, *sib)
		t.dropChild(nd, i)
	} else {
		// Merge the right sibling into under.
		under.kids = [3]uint64{under.kids[0], sib.kids[0], sib.kids[1]}
		under.keys = [2]uint64{nd.keys[i], sib.keys[0]}
		under.n = 3
		t.writeInternal(tx, *under)
		t.dropChild(nd, j)
	}
	t.writeInternal(tx, *nd)
}

// Check validates the tree: uniform leaf depth, 2-3 children per internal
// node, separator routing bounds, value integrity, and the header count.
func (t *BTree) Check() error {
	m := t.env.M
	var leaves uint64
	var walk func(addr uint64, depth int) (leafDepth int, minKey, maxKey uint64, err error)
	walk = func(addr uint64, depth int) (int, uint64, uint64, error) {
		// A crash-corrupted tree may link a node into a cycle through first
		// children, which the ordering checks (made after the first child
		// returns) never reach. A real 2-3 tree this deep would need 2^64
		// leaves.
		if depth > 64 {
			return 0, 0, 0, fmt.Errorf("btree: deeper than 64 levels (cycle)")
		}
		if m.ReadU64(addr+btFlags) == 1 {
			leaves++
			k := m.ReadU64(addr + btKey0)
			if v := m.ReadU64(addr + btKey1); v != splitmix.Mix(k) {
				return 0, 0, 0, fmt.Errorf("btree: leaf %d value corrupt", k)
			}
			return depth, k, k, nil
		}
		n := m.ReadU64(addr + btN)
		if n < 2 || n > 3 {
			return 0, 0, 0, fmt.Errorf("btree: internal node with %d children", n)
		}
		var ld, minK, maxK uint64
		var leafDepth int
		for i := uint64(0); i < n; i++ {
			kid := m.ReadU64(addr + btKid0 + 8*i)
			d, lo, hi, err := walk(kid, depth+1)
			if err != nil {
				return 0, 0, 0, err
			}
			if i == 0 {
				leafDepth, minK = d, lo
			} else {
				sep := m.ReadU64(addr + btKey0 + 8*(i-1))
				if ld >= sep {
					return 0, 0, 0, fmt.Errorf("btree: separator %d not above left max %d", sep, ld)
				}
				if lo < sep {
					return 0, 0, 0, fmt.Errorf("btree: separator %d above right min %d", sep, lo)
				}
				if d != leafDepth {
					return 0, 0, 0, fmt.Errorf("btree: uneven leaf depth %d vs %d", d, leafDepth)
				}
			}
			ld = hi
			maxK = hi
		}
		return leafDepth, minK, maxK, nil
	}
	root := m.ReadU64(t.hdr + 0)
	if root != 0 {
		if _, _, _, err := walk(root, 0); err != nil {
			return err
		}
	}
	if count := m.ReadU64(t.hdr + 8); leaves != count {
		return fmt.Errorf("btree: walked %d leaves, header says %d", leaves, count)
	}
	return nil
}

var _ Structure = (*BTree)(nil)
