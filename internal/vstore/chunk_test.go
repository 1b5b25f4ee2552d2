package vstore

import (
	"fmt"
	"math/bits"

	"specpersist/internal/splitmix"
)

// Prolly-style content-defined chunking: the ordered (key, value) entry
// stream of a committed version is cut into chunks wherever a rolling
// buzhash over the encoded entries hits a boundary pattern. Boundaries
// depend only on nearby entry bytes, so an edit perturbs at most the
// chunks adjacent to it and two versions' chunk lists agree everywhere
// else — the structural unit for diff/sync summaries.

// chunkWindow is the rolling-hash window in bytes (two encoded entries).
const chunkWindow = 32

// Chunk summarizes one content-defined run of entries.
type Chunk struct {
	FirstKey uint64 // first entry key in the chunk
	LastKey  uint64 // last entry key in the chunk
	Entries  int    // entry count
	Hash     uint64 // FNV-1a over the chunk's encoded entries
}

// buzTable is the byte-substitution table, generated deterministically from
// SplitMix64 so chunk boundaries are stable across runs and builds.
var buzTable = func() [256]uint64 {
	var t [256]uint64
	for i := range t {
		t[i] = splitmix.Mix(uint64(i) + 0x9e3779b97f4a7c15)
	}
	return t
}()

// buzzer is a rolling buzhash over a fixed window of bytes.
type buzzer struct {
	h    uint64
	ring [chunkWindow]byte
	n    int
	pos  int
}

func (b *buzzer) roll(c byte) {
	b.h = bits.RotateLeft64(b.h, 1) ^ buzTable[c]
	if b.n == chunkWindow {
		// Remove the byte leaving the window: its table value was rotated
		// once per subsequent byte, i.e. chunkWindow times in total.
		b.h ^= bits.RotateLeft64(buzTable[b.ring[b.pos]], chunkWindow)
	} else {
		b.n++
	}
	b.ring[b.pos] = c
	b.pos = (b.pos + 1) % chunkWindow
}

// ChunkBoundaries cuts committed version v's entry stream into
// content-defined chunks. maskBits sets the boundary density: a boundary
// falls after an entry when the low maskBits bits of the rolling hash are
// all ones, so chunks average 2^maskBits entries. maskBits must be in
// [1, 16].
func (s *Store) ChunkBoundaries(v uint64, maskBits uint) ([]Chunk, error) {
	if v > s.version {
		return nil, fmt.Errorf("vstore: ChunkBoundaries of uncommitted version %d", v)
	}
	if maskBits < 1 || maskBits > 16 {
		return nil, fmt.Errorf("vstore: maskBits %d out of [1,16]", maskBits)
	}
	mask := uint64(1)<<maskBits - 1
	const fnvOffset, fnvPrime = 0xcbf29ce484222325, 0x100000001b3

	var chunks []Chunk
	var bz buzzer
	cur := Chunk{Hash: fnvOffset}
	root := s.env.M.ReadU64(s.entryAddr(v) + meRoot)
	s.walkEntries(root, nil, func(k, val uint64) {
		var enc [16]byte
		for i := 0; i < 8; i++ {
			enc[i] = byte(k >> (8 * i))
			enc[8+i] = byte(val >> (8 * i))
		}
		if cur.Entries == 0 {
			cur.FirstKey = k
		}
		for _, c := range enc {
			bz.roll(c)
			cur.Hash = (cur.Hash ^ uint64(c)) * fnvPrime
		}
		cur.LastKey = k
		cur.Entries++
		if bz.h&mask == mask {
			chunks = append(chunks, cur)
			cur = Chunk{Hash: fnvOffset}
		}
	})
	if cur.Entries > 0 {
		chunks = append(chunks, cur)
	}
	return chunks, nil
}
