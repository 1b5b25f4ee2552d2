package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/splitmix"
	"specpersist/internal/txn"
)

// Hash-map entry layout (one 64-byte line per entry):
//
//	[0]  state (0 empty, 1 occupied, 2 tombstone)
//	[8]  key
//	[16] value
const (
	hmState = 0
	hmKey   = 8
	hmValue = 16

	hmEmpty    = 0
	hmOccupied = 1
	hmTomb     = 2
)

// HashMap is the persistent hash map benchmark (HM). Collisions probe the
// next consecutive entry (the paper's "chained collision policy", §3.2);
// when no free entry is found the table is resized to twice its size with
// every copied record written back, and the table switch is committed
// transactionally.
type HashMap struct {
	base
	hdr uint64 // [0] table ptr, [8] capacity, [16] live count, [24] used slots
}

// NewHashMap creates a map with the given initial capacity (rounded up to a
// power of two, minimum 8). mgr may be nil for the baseline variant.
func NewHashMap(env *exec.Env, mgr *txn.Manager, capacity int) *HashMap {
	c := 8
	for c < capacity {
		c <<= 1
	}
	h := &HashMap{base: base{env: env, mgr: mgr}}
	h.hdr = env.AllocLines(1)
	table := env.AllocLines(c)
	env.M.WriteU64(h.hdr+0, table)
	env.M.WriteU64(h.hdr+8, uint64(c))
	return h
}

// Name returns the benchmark abbreviation.
func (h *HashMap) Name() string { return "HM" }

// Size returns the number of live records.
func (h *HashMap) Size() int { return int(h.env.M.ReadU64(h.hdr + 16)) }

// Capacity returns the current table capacity in entries.
func (h *HashMap) Capacity() int { return int(h.env.M.ReadU64(h.hdr + 8)) }

// probe walks the probe sequence for key, emitting the hash computation and
// entry loads. It returns the address of the entry holding key (found=true)
// or the entry where an insert should land (first tombstone on the
// sequence, else the empty slot), plus a dependence register.
func (h *HashMap) probe(key uint64) (entry uint64, found bool, dep isa.Reg) {
	table, tr := h.ld(h.hdr+0, isa.NoReg)
	capa, cr := h.ld(h.hdr+8, isa.NoReg)
	// Hash computation: a short ALU chain dependent on nothing (the key is
	// an immediate) feeding the index computation.
	hr := h.env.Compute(tr, cr)
	idx := splitmix.Mix(key) & (capa - 1)
	var firstTomb uint64
	for i := uint64(0); i < capa; i++ {
		e := table + ((idx+i)&(capa-1))*mem.LineSize
		state, sr := h.ld(e+hmState, hr)
		switch state {
		case hmEmpty:
			if firstTomb != 0 {
				return firstTomb, false, sr
			}
			return e, false, sr
		case hmTomb:
			if firstTomb == 0 {
				firstTomb = e
			}
		case hmOccupied:
			k, kr := h.ld(e+hmKey, sr)
			h.cmp(kr)
			if k == key {
				return e, true, kr
			}
		}
	}
	if firstTomb != 0 {
		return firstTomb, false, hr
	}
	panic("pstruct: hash table full despite resize policy")
}

// Apply deletes key if present, inserts it otherwise.
func (h *HashMap) Apply(key uint64) {
	entry, found, dep := h.probe(key)
	if found {
		tx := h.begin()
		tx.Log(entry, mem.LineSize, dep)
		tx.Log(h.hdr, 32, isa.NoReg)
		tx.SetLogged()
		h.st(tx, entry+hmState, hmTomb, isa.NoReg, dep)
		count, cr := h.ld(h.hdr+16, isa.NoReg)
		h.st(tx, h.hdr+16, count-1, h.cmp(cr), isa.NoReg)
		tx.Commit()
		return
	}
	// Resize before inserting if the table is running out of free slots.
	capa := h.env.M.ReadU64(h.hdr + 8)
	used := h.env.M.ReadU64(h.hdr + 24)
	if (used+1)*10 > capa*7 {
		h.resize()
		entry, _, dep = h.probe(key)
	}
	wasTomb := h.env.M.ReadU64(entry+hmState) == hmTomb
	tx := h.begin()
	tx.Log(entry, mem.LineSize, dep)
	tx.Log(h.hdr, 32, isa.NoReg)
	tx.SetLogged()
	h.st(tx, entry+hmKey, key, isa.NoReg, dep)
	h.st(tx, entry+hmValue, splitmix.Mix(key), isa.NoReg, dep)
	h.st(tx, entry+hmState, hmOccupied, isa.NoReg, dep)
	count, cr := h.ld(h.hdr+16, isa.NoReg)
	h.st(tx, h.hdr+16, count+1, h.cmp(cr), isa.NoReg)
	if !wasTomb {
		usedv, ur := h.ld(h.hdr+24, isa.NoReg)
		h.st(tx, h.hdr+24, usedv+1, h.cmp(ur), isa.NoReg)
	}
	tx.Commit()
}

// resize doubles the table (§3.2): records are copied into a fresh table
// with a writeback per insertion, the copy is persisted with a barrier, and
// the header switch commits transactionally. A crash mid-copy leaves the
// old table in place; the half-built new table is leaked, not visible.
func (h *HashMap) resize() {
	env := h.env
	oldTable, tr := h.ld(h.hdr+0, isa.NoReg)
	oldCap, _ := h.ld(h.hdr+8, isa.NoReg)
	newCap := oldCap * 2
	newTable := env.AllocLines(int(newCap))
	var live uint64
	for i := uint64(0); i < oldCap; i++ {
		e := oldTable + i*mem.LineSize
		state, sr := h.ld(e+hmState, tr)
		if state != hmOccupied {
			continue
		}
		k, kr := h.ld(e+hmKey, sr)
		v, vr := h.ld(e+hmValue, sr)
		// Probe the new table (functional; no tombstones yet).
		idx := splitmix.Mix(k) & (newCap - 1)
		for {
			ne := newTable + idx*mem.LineSize
			st, nr := h.ld(ne+hmState, kr)
			if st == hmEmpty {
				env.StoreU64(ne+hmKey, k, kr, nr)
				env.StoreU64(ne+hmValue, v, vr, nr)
				env.StoreU64(ne+hmState, hmOccupied, isa.NoReg, nr)
				env.Clwb(ne)
				break
			}
			idx = (idx + 1) & (newCap - 1)
		}
		live++
	}
	env.PersistBarrier()
	// Atomically switch the header to the fully persisted new table.
	tx := h.begin()
	tx.Log(h.hdr, 32, isa.NoReg)
	tx.SetLogged()
	h.st(tx, h.hdr+0, newTable, isa.NoReg, isa.NoReg)
	h.st(tx, h.hdr+8, newCap, isa.NoReg, isa.NoReg)
	h.st(tx, h.hdr+16, live, isa.NoReg, isa.NoReg)
	h.st(tx, h.hdr+24, live, isa.NoReg, isa.NoReg)
	tx.Commit()
}

// Contains reports whether key is present.
func (h *HashMap) Contains(key uint64) bool {
	_, found, _ := h.probe(key)
	return found
}

// Check validates the table: counters consistent with a full scan, every
// record findable through its probe sequence, values intact.
func (h *HashMap) Check() error {
	m := h.env.M
	table := m.ReadU64(h.hdr + 0)
	capa := m.ReadU64(h.hdr + 8)
	count := m.ReadU64(h.hdr + 16)
	used := m.ReadU64(h.hdr + 24)
	if capa == 0 || capa&(capa-1) != 0 {
		return fmt.Errorf("hashmap: capacity %d not a power of two", capa)
	}
	var live, occ uint64
	for i := uint64(0); i < capa; i++ {
		e := table + i*mem.LineSize
		switch m.ReadU64(e + hmState) {
		case hmOccupied:
			live++
			occ++
			k := m.ReadU64(e + hmKey)
			if m.ReadU64(e+hmValue) != splitmix.Mix(k) {
				return fmt.Errorf("hashmap: value corrupt for key %d", k)
			}
			// The record must be reachable: every slot from its hash home
			// to its position must be non-empty.
			home := splitmix.Mix(k) & (capa - 1)
			for j := home; j != i; j = (j + 1) & (capa - 1) {
				if m.ReadU64(table+j*mem.LineSize+hmState) == hmEmpty {
					return fmt.Errorf("hashmap: key %d unreachable (hole at %d)", k, j)
				}
			}
		case hmTomb:
			occ++
		case hmEmpty:
		default:
			return fmt.Errorf("hashmap: invalid state at slot %d", i)
		}
	}
	if live != count {
		return fmt.Errorf("hashmap: scanned %d live, header says %d", live, count)
	}
	if occ != used {
		return fmt.Errorf("hashmap: scanned %d used, header says %d", occ, used)
	}
	return nil
}

var _ Structure = (*HashMap)(nil)
