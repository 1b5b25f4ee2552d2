package pstruct

import "specpersist/internal/mem"

// The Keys walks read a structure's durable image back as its key set;
// only the tests compare them with a model.

// Keys returns the keys in list order.
func (l *List) Keys() []uint64 {
	m := l.env.M
	var keys []uint64
	for cur := m.ReadU64(l.hdr); cur != 0; cur = m.ReadU64(cur + llNext) {
		keys = append(keys, m.ReadU64(cur+llKey))
		if len(keys) > 1<<22 {
			panic("pstruct: list cycle")
		}
	}
	return keys
}

// Keys returns all live keys.
func (h *HashMap) Keys() []uint64 {
	m := h.env.M
	table := m.ReadU64(h.hdr + 0)
	capa := m.ReadU64(h.hdr + 8)
	var keys []uint64
	for i := uint64(0); i < capa; i++ {
		e := table + i*mem.LineSize
		if m.ReadU64(e+hmState) == hmOccupied {
			keys = append(keys, m.ReadU64(e+hmKey))
		}
	}
	return keys
}

// Keys returns all keys in order.
func (t *AVL) Keys() []uint64 {
	m := t.env.M
	var keys []uint64
	var walk func(addr uint64)
	walk = func(addr uint64) {
		if addr == 0 {
			return
		}
		walk(m.ReadU64(addr + avLeft))
		keys = append(keys, m.ReadU64(addr+avKey))
		walk(m.ReadU64(addr + avRight))
	}
	walk(m.ReadU64(t.hdr + 0))
	return keys
}

// Keys returns all keys in order.
func (t *RBTree) Keys() []uint64 {
	m := t.env.M
	var keys []uint64
	var walk func(addr uint64)
	walk = func(addr uint64) {
		if addr == 0 {
			return
		}
		walk(m.ReadU64(addr + rbLeft))
		keys = append(keys, m.ReadU64(addr+rbKey))
		walk(m.ReadU64(addr + rbRight))
	}
	walk(m.ReadU64(t.hdr + 0))
	return keys
}

// Keys returns all keys in order.
func (t *BTree) Keys() []uint64 {
	m := t.env.M
	var keys []uint64
	var walk func(addr uint64)
	walk = func(addr uint64) {
		if addr == 0 {
			return
		}
		if m.ReadU64(addr+btFlags) == 1 {
			keys = append(keys, m.ReadU64(addr+btKey0))
			return
		}
		n := m.ReadU64(addr + btN)
		for i := uint64(0); i < n; i++ {
			walk(m.ReadU64(addr + btKid0 + 8*i))
		}
	}
	walk(m.ReadU64(t.hdr + 0))
	return keys
}
