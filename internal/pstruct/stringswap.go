package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/splitmix"
	"specpersist/internal/txn"
)

// StringLen is the length of each string in the swap array (§3.2: 256
// bytes, i.e. four cache lines per string).
const StringLen = 256

const stringLines = StringLen / mem.LineSize

// StringSwap is the persistent string-array benchmark (SS): an operation
// selects two strings and swaps them. Undo-logging a swap records both
// strings (eight log-entry writebacks) plus the index line, matching the
// paper's description of eight clwbs for logging entries and one for
// indexes.
type StringSwap struct {
	base
	hdr   uint64 // [0] string array ptr, [8] n, [16] index array ptr
	arr   uint64
	idx   uint64
	n     uint64
	swaps uint64
	// Swap staging: both strings are live at once during the exchange, so
	// each gets its own reused buffer (no per-swap allocation).
	bufI, bufJ [StringLen]byte
}

// NewStringSwap creates an array of n strings; slot i initially holds the
// canonical string for identity i, recorded in the index array. mgr may be
// nil for the baseline variant.
func NewStringSwap(env *exec.Env, mgr *txn.Manager, n int) *StringSwap {
	if n < 2 {
		panic("pstruct: string swap needs at least two strings")
	}
	s := &StringSwap{base: base{env: env, mgr: mgr}, n: uint64(n)}
	s.hdr = env.AllocLines(1)
	s.arr = env.AllocLines(n * stringLines)
	s.idx = env.Alloc(n*8, mem.LineSize)
	env.M.WriteU64(s.hdr+0, s.arr)
	env.M.WriteU64(s.hdr+8, uint64(n))
	env.M.WriteU64(s.hdr+16, s.idx)
	for i := 0; i < n; i++ {
		canonicalString(&s.bufI, uint64(i))
		env.M.Write(s.slot(uint64(i)), s.bufI[:])
		env.M.WriteU64(s.idx+uint64(i)*8, uint64(i))
	}
	return s
}

// canonicalString fills b with the content identifying string id.
func canonicalString(b *[StringLen]byte, id uint64) {
	x := splitmix.Mix(id)
	for i := range b {
		b[i] = byte(x >> (8 * (uint(i) % 8)))
		if i%8 == 7 {
			x = splitmix.Mix(x)
		}
	}
}

func (s *StringSwap) slot(i uint64) uint64 { return s.arr + i*StringLen }

// Name returns the benchmark abbreviation.
func (s *StringSwap) Name() string { return "SS" }

// Size returns the number of strings.
func (s *StringSwap) Size() int { return int(s.n) }

// Apply swaps the two strings selected by key, as one failure-safe
// transaction.
func (s *StringSwap) Apply(key uint64) {
	i := key % s.n
	j := (key / s.n) % s.n
	if i == j {
		j = (j + 1) % s.n
	}
	s.cmp() // index derivation
	ai, aj := s.slot(i), s.slot(j)
	ii, ij := s.idx+i*8, s.idx+j*8

	tx := s.begin()
	tx.Log(ai, StringLen, isa.NoReg) // 4 log entries
	tx.Log(aj, StringLen, isa.NoReg) // 4 log entries
	tx.Log(ii, 8, isa.NoReg)         // index line(s)
	tx.Log(ij, 8, isa.NoReg)
	tx.SetLogged()

	ri := s.env.LoadBytesInto(s.bufI[:], ai, isa.NoReg)
	rj := s.env.LoadBytesInto(s.bufJ[:], aj, isa.NoReg)
	s.stBytes(tx, ai, s.bufJ[:], rj)
	s.stBytes(tx, aj, s.bufI[:], ri)
	vi, vri := s.ld(ii, isa.NoReg)
	vj, vrj := s.ld(ij, isa.NoReg)
	s.st(tx, ii, vj, vrj, isa.NoReg)
	s.st(tx, ij, vi, vri, isa.NoReg)
	tx.Commit()
	s.swaps++
}

// stBytes is the byte-range analogue of st: audited, stored, touched.
func (s *StringSwap) stBytes(tx *txn.Tx, addr uint64, src []byte, dep isa.Reg) {
	if Audit && tx.Sealed() && !tx.Covered(addr, len(src)) {
		panic(fmt.Sprintf("pstruct: byte store to unlogged range %#x+%d", addr, len(src)))
	}
	s.env.StoreBytes(addr, src, dep, isa.NoReg)
	tx.Touch(addr, len(src))
}

// Contains reports whether the canonical string for identity key%n is
// present somewhere in the array.
func (s *StringSwap) Contains(key uint64) bool {
	var want, buf [StringLen]byte
	canonicalString(&want, key%s.n)
	for i := uint64(0); i < s.n; i++ {
		s.env.M.Read(s.slot(i), buf[:])
		if buf == want {
			return true
		}
	}
	return false
}

// Check validates the array: the index array is a permutation of [0, n) and
// each physical slot holds exactly the canonical string of its index entry.
func (s *StringSwap) Check() error {
	m := s.env.M
	seen := make([]bool, s.n)
	var want, buf [StringLen]byte
	for i := uint64(0); i < s.n; i++ {
		id := m.ReadU64(s.idx + i*8)
		if id >= s.n {
			return fmt.Errorf("stringswap: slot %d has invalid identity %d", i, id)
		}
		if seen[id] {
			return fmt.Errorf("stringswap: identity %d appears twice", id)
		}
		seen[id] = true
		m.Read(s.slot(i), buf[:])
		if canonicalString(&want, id); buf != want {
			return fmt.Errorf("stringswap: slot %d content does not match identity %d", i, id)
		}
	}
	return nil
}

// IdentityAt returns the identity stored in physical slot i (testing
// helper).
func (s *StringSwap) IdentityAt(i uint64) uint64 {
	return s.env.M.ReadU64(s.idx + (i%s.n)*8)
}

var _ Structure = (*StringSwap)(nil)
