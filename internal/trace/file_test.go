package trace

import (
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"specpersist/internal/isa"
)

func roundTrip(t *testing.T, ins []isa.Instr) []isa.Instr {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		w.Emit(in)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(ins)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(ins))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out []isa.Instr
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, in)
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return out
}

func TestFileRoundTripBasic(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.ALU, Dst: 1, Lat: 3},
		{Op: isa.Load, Dst: 2, Addr: 0x1000, Size: 8, Src2: 1},
		{Op: isa.Store, Addr: 0x0FF8, Size: 4, Src1: 2}, // backwards delta
		{Op: isa.Clwb, Addr: 0x1000},
		{Op: isa.Pcommit},
		{Op: isa.Sfence},
		{Op: isa.Mfence},
		{Op: isa.Clflushopt, Addr: 1 << 40}, // big jump
		{Op: isa.Clflush, Addr: 0},
	}
	out := roundTrip(t, ins)
	if len(out) != len(ins) {
		t.Fatalf("decoded %d, want %d", len(out), len(ins))
	}
	for i := range ins {
		if out[i] != ins[i] {
			t.Errorf("record %d: %+v != %+v", i, out[i], ins[i])
		}
	}
}

// TestWriterExpandsChainRecords: a buffer's records written to a file
// decode as the expanded stream, so a file never holds a chain record.
func TestWriterExpandsChainRecords(t *testing.T) {
	var recs Buffer
	b := NewBuilder(&recs)
	b.Store(0x40, 8, b.Chain(4), isa.NoReg)
	b.Chain(3)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range recs.NextBlock() {
		w.Emit(in)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(recs.Len()) {
		t.Fatalf("Count = %d, want %d", w.Count(), recs.Len())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs.Instrs() {
		if in, ok := r.Next(); !ok || in != want {
			t.Fatalf("record %d: %+v (%v), want %+v", i, in, ok, want)
		}
	}
	if _, ok := r.Next(); ok || r.Err() != nil {
		t.Fatalf("stream did not end cleanly (err %v)", r.Err())
	}
}

func TestFileRoundTripEmpty(t *testing.T) {
	if out := roundTrip(t, nil); len(out) != 0 {
		t.Fatalf("decoded %d from empty trace", len(out))
	}
}

func TestQuickFileRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		ins := make([]isa.Instr, n)
		for i := range ins {
			ins[i] = isa.Instr{
				Op:   isa.Op(rng.Intn(9)),
				Addr: rng.Uint64() >> uint(rng.Intn(40)),
				Size: uint8(rng.Intn(9)),
				Lat:  uint8(rng.Intn(8)),
				Dst:  isa.Reg(rng.Intn(1 << 20)),
				Src1: isa.Reg(rng.Intn(1 << 20)),
				Src2: isa.Reg(rng.Intn(1 << 20)),
			}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, in := range ins {
			w.Emit(in)
		}
		if w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for i := range ins {
			got, ok := r.Next()
			if !ok || got != ins[i] {
				return false
			}
		}
		_, ok := r.Next()
		return !ok && r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACE")); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := NewReader(strings.NewReader("SPTRACE\x00\x63")); err == nil {
		t.Error("accepted bad version")
	}
	if _, err := NewReader(strings.NewReader("SP")); err == nil {
		t.Error("accepted truncated header")
	}
}

func TestReaderReportsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Emit(isa.Instr{Op: isa.Load, Dst: 5, Addr: 0x1234, Size: 8})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop mid-record.
	data := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Error("decoded a truncated record")
	}
	if r.Err() == nil {
		t.Error("truncation not reported")
	}
}

func TestFileCompression(t *testing.T) {
	// Sequential access patterns should encode to a few bytes per record.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const n = 10000
	for i := 0; i < n; i++ {
		w.Emit(isa.Instr{Op: isa.Store, Addr: uint64(0x1000 + i*8), Size: 8, Src1: isa.Reg(i + 1)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / n
	if perRecord > 12 {
		t.Errorf("%.1f bytes/record, want <= 12", perRecord)
	}
}

// encodeTrace writes ins to a fresh buffer and returns the encoded bytes.
func encodeTrace(t *testing.T, ins []isa.Instr) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		w.Emit(in)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func seqTrace(n int) []isa.Instr {
	ins := make([]isa.Instr, n)
	for i := range ins {
		ins[i] = isa.Instr{Op: isa.Store, Addr: uint64(0x1000 + i*8), Size: 8, Src1: isa.Reg(i + 1)}
	}
	return ins
}

func TestReaderNextBlock(t *testing.T) {
	// More than two slabs' worth so block boundaries and the short tail are
	// both exercised.
	ins := seqTrace(2*readerBlock + 100)
	r, err := NewReader(bytes.NewReader(encodeTrace(t, ins)))
	if err != nil {
		t.Fatal(err)
	}
	var out []isa.Instr
	blocks := 0
	for {
		blk := r.NextBlock()
		if len(blk) == 0 {
			break
		}
		blocks++
		out = append(out, blk...) // copy: the slab is reused
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if blocks != 3 {
		t.Errorf("blocks = %d, want 3", blocks)
	}
	if len(out) != len(ins) {
		t.Fatalf("decoded %d, want %d", len(out), len(ins))
	}
	for i := range ins {
		if out[i] != ins[i] {
			t.Fatalf("record %d: %+v != %+v", i, out[i], ins[i])
		}
	}
}

func TestReaderSeekRewind(t *testing.T) {
	ins := seqTrace(2000)
	r, err := NewReader(bytes.NewReader(encodeTrace(t, ins)))
	if err != nil {
		t.Fatal(err)
	}
	// Consume a prefix through the block path, then seek backward: the
	// rollback-replay contract requires the identical suffix.
	for i := 0; i < 1500; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatalf("stream ended at %d", i)
		}
	}
	r.Seek(700)
	for i := 700; i < len(ins); i++ {
		in, ok := r.Next()
		if !ok {
			t.Fatalf("stream ended at %d after seek", i)
		}
		if in != ins[i] {
			t.Fatalf("replayed record %d: %+v != %+v", i, in, ins[i])
		}
	}
	if _, ok := r.Next(); ok {
		t.Error("stream not exhausted after replay")
	}

	// Forward seek from a rewound stream skips records.
	r.Rewind()
	r.Seek(1999)
	in, ok := r.Next()
	if !ok || in != ins[1999] {
		t.Fatalf("forward seek: got %+v, %v", in, ok)
	}

	// Seeking past the end panics, mirroring Buffer.Seek.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("seek past end did not panic")
			}
		}()
		r.Seek(5000)
	}()
}

func TestReaderRewindNonSeekablePanics(t *testing.T) {
	data := encodeTrace(t, seqTrace(4))
	r, err := NewReader(io.NopCloser(bytes.NewReader(data))) // hides io.Seeker
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("rewind on non-seekable stream did not panic")
		}
	}()
	r.Rewind()
}
