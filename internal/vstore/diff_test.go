package vstore

import "fmt"

// Version-history helpers the store's tests use: a version's parent and
// the structural diff between two committed versions.

// Parent returns committed version v's parent version.
func (s *Store) Parent(v uint64) uint64 {
	if v > s.version {
		panic(fmt.Sprintf("vstore: Parent of uncommitted version %d", v))
	}
	return s.env.M.ReadU64(s.entryAddr(v) + meParent)
}

// markReach records every node line reachable from addr into seen.
func (s *Store) markReach(addr uint64, seen map[uint64]bool) {
	if addr == 0 || seen[addr] {
		return
	}
	seen[addr] = true
	m := s.env.M
	if m.ReadU64(addr+ndFlags) == 1 {
		return
	}
	n := m.ReadU64(addr + ndN)
	for i := uint64(0); i < n; i++ {
		s.markReach(m.ReadU64(addr+ndKid0+8*i), seen)
	}
}

// DiffOp tags one Diff entry.
type DiffOp uint8

const (
	// DiffPut means the key is new or changed in the target version.
	DiffPut DiffOp = iota
	// DiffDel means the key existed in the base version but not the target.
	DiffDel
)

// DiffEntry is one element of a structural diff; Val is the target-version
// value for puts and zero for deletes.
type DiffEntry struct {
	Op  DiffOp
	Key uint64
	Val uint64
}

// Diff computes the change set turning committed version v1 into committed
// version v2, exploiting structural sharing: a subtree referenced by both
// versions is identical (committed nodes are immutable), so neither side's
// walk descends into lines the other version also reaches. Path copying
// guarantees every changed, added or deleted entry sits outside the shared
// region, so the pruned entry lists contain exactly the difference. Entries
// are returned in ascending key order, deletes before puts at equal rank.
func (s *Store) Diff(v1, v2 uint64) []DiffEntry {
	if v1 > s.version || v2 > s.version {
		panic(fmt.Sprintf("vstore: Diff(%d,%d) with only %d committed", v1, v2, s.version))
	}
	s.stats.Diffs++
	if v1 == v2 {
		return nil
	}
	m := s.env.M
	r1 := m.ReadU64(s.entryAddr(v1) + meRoot)
	r2 := m.ReadU64(s.entryAddr(v2) + meRoot)
	reach1 := make(map[uint64]bool)
	reach2 := make(map[uint64]bool)
	s.markReach(r1, reach1)
	s.markReach(r2, reach2)
	old := make(map[uint64]uint64)
	s.walkEntries(r1, reach2, func(k, v uint64) { old[k] = v })
	var out []DiffEntry
	newKeys := make(map[uint64]bool)
	s.walkEntries(r2, reach1, func(k, v uint64) {
		newKeys[k] = true
		if ov, ok := old[k]; !ok || ov != v {
			out = append(out, DiffEntry{Op: DiffPut, Key: k, Val: v})
		}
	})
	for k := range old {
		if !newKeys[k] {
			out = append(out, DiffEntry{Op: DiffDel, Key: k})
		}
	}
	sortDiff(out)
	return out
}

// sortDiff orders entries by key, deletes first at equal keys (a key can
// appear once, but determinism must not depend on that).
func sortDiff(d []DiffEntry) {
	for i := 1; i < len(d); i++ {
		for j := i; j > 0; j-- {
			a, b := d[j-1], d[j]
			if a.Key < b.Key || (a.Key == b.Key && a.Op >= b.Op) {
				break
			}
			d[j-1], d[j] = b, a
		}
	}
}
