package pstruct

import (
	"specpersist/internal/isa"
	"specpersist/internal/mem"
)

// Incremental logging (§3.2, Figure 4): instead of conservatively logging
// the whole root-to-leaf path up front (full logging), each rebalancing
// step logs only the node(s) it modifies, paying a persist-barrier set per
// step. The paper rejects this policy for its workloads because of the
// extra barriers and the recovery complexity (a crash can leave the tree
// mid-rebalance); this implementation reproduces its *cost model* — the
// minimal per-step log writes and the per-step barriers — while keeping
// single-transaction recovery: the per-step barriers are issued while the
// undo log is being built, and the modified set is computed precisely (the
// leaf plus the chain of full ancestors that the insert will split, ending
// at the first ancestor with room to absorb).
//
// Deletions always use full logging: 2-3 tree underflow repair involves
// siblings chosen during the unwind, which is exactly the case where
// precise pre-computation stops being simple.

// SetIncremental switches the tree's insert path between full logging
// (false, the paper's choice and the default) and incremental logging.
func (t *BTree) SetIncremental(on bool) { t.incremental = on }

// insertWriteSet returns precisely the existing nodes an insert of key
// will modify: the leaf it lands on and every full (3-child) ancestor that
// the split chain escalates through, plus the first non-full ancestor that
// absorbs the final split. An empty path means the tree is empty.
func (t *BTree) insertWriteSet(path []uint64) []uint64 {
	if len(path) == 0 {
		return nil
	}
	// The leaf always splits (an insert rewrites it and adds a sibling).
	set := []uint64{path[len(path)-1]}
	for i := len(path) - 2; i >= 0; i-- {
		nd := t.readNode(path[i], isa.NoReg)
		set = append(set, path[i])
		if nd.n < 3 {
			return set // absorbs; chain stops here
		}
	}
	return set // chain reaches the root (which will split)
}

// applyIncremental performs one insert with incremental logging. The
// caller guarantees the key is absent.
func (t *BTree) applyIncremental(key uint64, path []uint64) {
	env := t.env
	tx := t.begin()
	tx.Log(t.hdr, 16, isa.NoReg)
	// One increment per modified node: log it, then persist the increment
	// (the paper's per-step pcommit+sfences).
	for _, a := range t.insertWriteSet(path) {
		tx.Log(a, mem.LineSize, isa.NoReg)
		env.PersistBarrier()
	}
	tx.SetLogged()

	root := env.M.ReadU64(t.hdr + 0)
	count, cr := t.ld(t.hdr+8, isa.NoReg)
	if root == 0 {
		n := t.allocNode(tx)
		t.writeLeaf(tx, n, key, mix64(key), isa.NoReg)
		t.st(tx, t.hdr+0, n, isa.NoReg, isa.NoReg)
	} else {
		sep, right := t.insert(tx, root, key, isa.NoReg)
		if right != 0 {
			nr := t.allocNode(tx)
			t.writeInternal(tx, btNode{addr: nr, n: 2, keys: [2]uint64{sep}, kids: [3]uint64{root, right}})
			t.st(tx, t.hdr+0, nr, isa.NoReg, isa.NoReg)
		}
	}
	t.st(tx, t.hdr+8, count+1, t.cmp(cr), isa.NoReg)
	tx.Commit()
}
