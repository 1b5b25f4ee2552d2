package mem

import "math/bits"

// LineSet is a set of cache lines sized by how many lines it holds, not by
// the addresses they span: an open-addressed table over line numbers that
// doubles whenever it would pass half full. Every slot carries the
// generation it was written in, so Clear is O(1): it starts a new
// generation, and every older slot reads as empty. A set cleared and
// refilled many times (once per transaction, once per speculation episode)
// keeps its table and allocates only when a fill outgrows every earlier
// one. The zero value is an empty, usable set. A copy shares its table with
// the original, so an owner that is copied gives the copy a zero LineSet.
type LineSet struct {
	slots []lineSlot
	shift uint8 // 64 - log2(len(slots)): Fibonacci hashing keeps the top bits
	gen   uint32
	n     int
}

// lineSlot holds one line number, live while gen is the set's generation.
type lineSlot struct {
	line uint64
	gen  uint32
}

// Len reports how many lines the set holds.
func (s *LineSet) Len() int { return s.n }

// Has reports whether the line containing addr is in the set.
func (s *LineSet) Has(addr uint64) bool {
	if s.n == 0 {
		return false
	}
	line, mask := addr/LineSize, len(s.slots)-1
	for i := s.home(line); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			return false
		}
		if sl.line == line {
			return true
		}
	}
}

// Add puts the line containing addr in the set and reports whether it was
// new.
func (s *LineSet) Add(addr uint64) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	line, mask := addr/LineSize, len(s.slots)-1
	for i := s.home(line); ; i = (i + 1) & mask {
		sl := &s.slots[i]
		if sl.gen != s.gen {
			sl.line, sl.gen = line, s.gen
			s.n++
			return true
		}
		if sl.line == line {
			return false
		}
	}
}

// Clear empties the set in O(1), keeping its table.
func (s *LineSet) Clear() {
	s.n = 0
	if s.gen++; s.gen == 0 {
		// The generation wrapped: slots from 2^32 clears ago would read
		// as live again, so wipe them once.
		clear(s.slots)
		s.gen = 1
	}
}

func (s *LineSet) home(line uint64) int {
	return int(line * 0x9e3779b97f4a7c15 >> s.shift)
}

// grow doubles the table (to 16 slots when it has none) and re-inserts the
// live lines. Generation 0 marks an unwritten slot, so a set's live
// generation is never 0.
func (s *LineSet) grow() {
	old := s.slots
	s.slots = make([]lineSlot, max(16, 2*len(old)))
	s.shift = uint8(64 - bits.TrailingZeros(uint(len(s.slots))))
	s.gen = max(s.gen, 1)
	mask := len(s.slots) - 1
	for _, sl := range old {
		if sl.gen != s.gen {
			continue
		}
		i := s.home(sl.line)
		for s.slots[i].gen == s.gen {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}
