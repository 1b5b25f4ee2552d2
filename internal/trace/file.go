package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"specpersist/internal/isa"
)

// Binary trace file format: a magic header, a format version, then one
// varint-encoded record per instruction. Addresses are delta-encoded
// against the previous instruction's address (zigzag), registers against
// the running register counter — traces compress to a few bytes per
// instruction, so paper-scale streams (hundreds of millions of
// instructions) stay practical on disk.
const (
	fileMagic   = "SPTRACE\x00"
	fileVersion = 1
)

// Writer streams instructions to an io.Writer in the binary trace format.
// It implements Sink. Close (or Flush) must be called to drain the buffer.
type Writer struct {
	w        *bufio.Writer
	prevAddr uint64
	n        uint64
	err      error
}

// NewWriter writes the file header and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	if err := bw.WriteByte(fileVersion); err != nil {
		return nil, fmt.Errorf("trace: writing version: %w", err)
	}
	return &Writer{w: bw}, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Emit encodes one instruction; a chain record is written as its links,
// so a file holds instructions only and needs no record of its own.
// Errors are sticky and surface at Flush.
func (w *Writer) Emit(in isa.Instr) {
	if in.Op == isa.Chain {
		for i := 0; i < in.Links(); i++ {
			w.Emit(in.Link(i))
		}
		return
	}
	if w.err != nil {
		return
	}
	var buf [40]byte
	n := 0
	buf[n] = byte(in.Op)
	n++
	buf[n] = in.Size
	n++
	buf[n] = in.Lat
	n++
	n += binary.PutUvarint(buf[n:], zigzag(int64(in.Addr)-int64(w.prevAddr)))
	n += binary.PutUvarint(buf[n:], uint64(in.Dst))
	n += binary.PutUvarint(buf[n:], uint64(in.Src1))
	n += binary.PutUvarint(buf[n:], uint64(in.Src2))
	w.prevAddr = in.Addr
	w.n++
	if _, err := w.w.Write(buf[:n]); err != nil {
		w.err = fmt.Errorf("trace: writing record %d: %w", w.n, err)
	}
}

// Count reports how many instructions have been emitted.
func (w *Writer) Count() uint64 { return w.n }

// Flush drains buffered data and returns any sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader streams instructions from a binary trace file. It implements
// Source and BlockSource; decode errors terminate the stream and are
// available from Err. When the underlying reader is an io.Seeker (a file),
// Reader also implements Seeker and Rewinder, which makes file replay a
// valid rollback target for speculative runs: Seek re-decodes the stream
// from the record start, reproducing the identical instruction sequence.
type Reader struct {
	r        *bufio.Reader
	src      io.Reader
	seeker   io.Seeker // non-nil when src supports random access
	startOff int64     // src offset of the file header
	prevAddr uint64
	pos      uint64 // instructions handed out so far
	err      error
	done     bool
	slab     []isa.Instr // reusable block-decode slab
}

// readerBlock is the block-decode slab capacity: large enough to amortize
// the per-block call, small enough to stay cache-resident.
const readerBlock = 1024

// NewReader validates the header and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{src: r}
	if s, ok := r.(io.Seeker); ok {
		off, err := s.Seek(0, io.SeekCurrent)
		if err == nil {
			rd.seeker = s
			rd.startOff = off
		}
	}
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", err)
	}
	if ver != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	rd.r = br
	return rd, nil
}

// NextBlock implements BlockSource: it decodes up to readerBlock
// instructions into a reusable slab and returns the filled prefix. An empty
// result means the stream is exhausted (or a decode error stopped it; see
// Err).
func (r *Reader) NextBlock() []isa.Instr {
	if r.slab == nil {
		r.slab = make([]isa.Instr, 0, readerBlock)
	}
	r.slab = r.slab[:0]
	for len(r.slab) < cap(r.slab) {
		in, ok := r.Next()
		if !ok {
			break
		}
		r.slab = append(r.slab, in)
	}
	return r.slab
}

// Rewind restarts the stream from the first record. It panics when the
// underlying reader does not support random access (pipe input).
func (r *Reader) Rewind() {
	if r.seeker == nil {
		panic("trace: rewind on a non-seekable trace stream")
	}
	// Re-read past the (already validated) header.
	if _, err := r.seeker.Seek(r.startOff+int64(len(fileMagic))+1, io.SeekStart); err != nil {
		panic(fmt.Sprintf("trace: rewind: %v", err))
	}
	r.r.Reset(r.src)
	r.prevAddr = 0
	r.pos = 0
	r.err = nil
	r.done = false
}

// Seek moves the read position to an absolute instruction index (the
// rollback-replay contract; see Seeker). Backward seeks require a seekable
// underlying reader; either direction panics when the index lies past the
// end of the stream, mirroring Buffer.Seek.
func (r *Reader) Seek(pos uint64) {
	if pos < r.pos {
		r.Rewind()
	}
	for r.pos < pos {
		if _, ok := r.Next(); !ok {
			panic("trace: seek past end of trace stream")
		}
	}
}

// Next implements Source.
func (r *Reader) Next() (isa.Instr, bool) {
	if r.done {
		return isa.Instr{}, false
	}
	op, err := r.r.ReadByte()
	if err != nil {
		r.done = true
		if err != io.EOF {
			r.err = fmt.Errorf("trace: reading opcode: %w", err)
		}
		return isa.Instr{}, false
	}
	fail := func(what string, err error) (isa.Instr, bool) {
		r.done = true
		r.err = fmt.Errorf("trace: reading %s: %w", what, err)
		return isa.Instr{}, false
	}
	size, err := r.r.ReadByte()
	if err != nil {
		return fail("size", err)
	}
	lat, err := r.r.ReadByte()
	if err != nil {
		return fail("latency", err)
	}
	delta, err := binary.ReadUvarint(r.r)
	if err != nil {
		return fail("address", err)
	}
	dst, err := binary.ReadUvarint(r.r)
	if err != nil {
		return fail("dst", err)
	}
	src1, err := binary.ReadUvarint(r.r)
	if err != nil {
		return fail("src1", err)
	}
	src2, err := binary.ReadUvarint(r.r)
	if err != nil {
		return fail("src2", err)
	}
	addr := uint64(int64(r.prevAddr) + unzigzag(delta))
	r.prevAddr = addr
	r.pos++
	return isa.Instr{
		Op:   isa.Op(op),
		Addr: addr,
		Size: size,
		Lat:  lat,
		Dst:  isa.Reg(dst),
		Src1: isa.Reg(src1),
		Src2: isa.Reg(src2),
	}, true
}

// Err returns the first decode error, if any (io.EOF is not an error).
func (r *Reader) Err() error { return r.err }
