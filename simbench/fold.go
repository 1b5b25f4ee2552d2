package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// layerNames lists every bucket host time can land in. The first 21 are
// the simulator layers the benchmark is designed around; core, obs, isa
// and report are the remaining internal packages, other is any internal
// package added later, and bench is this program's own code. Together
// they cover every sample, so the buckets sum to the profile's total.
var layerNames = []string{
	"cpu", "sp", "cache", "memctl", "trace", "exec", "mem", "pmem", "txn",
	"pstruct", "vstore", "workload", "multicore", "service", "cluster",
	"chaos", "hist", "fault", "litmus", "sweep", "runtime.gc",
	"core", "obs", "isa", "report", "other", "bench",
}

var phaseNames = []string{"populate", "generate", "timing"}

const internalPrefix = "specpersist/internal/"

// phaseFrames names the stack frames that open each phase. A sample is in
// the first phase (generate, then timing, then populate) that has one of
// its frames anywhere on the stack.
var phaseFrames = []struct {
	phase  string
	frames []string
}{
	{"generate", []string{
		internalPrefix + "workload.(*opSource).NextBlock",
		internalPrefix + "workload.(*opSource).Next",
		internalPrefix + "service.(*Backend).AppendGroup",
	}},
	{"timing", []string{
		internalPrefix + "cpu.(*CPU).Run",
		internalPrefix + "cpu.(*CPU).Step",
	}},
	{"populate", []string{
		internalPrefix + "workload.Run",
		internalPrefix + "cluster.(*fleet).buildMachine",
	}},
}

// fold accumulates profiled host time, in milliseconds, by layer and by
// phase.
type fold struct {
	layer map[string]float64
	phase map[string]float64
	total float64
}

func newFold() *fold {
	f := &fold{layer: map[string]float64{}, phase: map[string]float64{}}
	for _, l := range layerNames {
		f.layer[l] = 0
	}
	for _, p := range phaseNames {
		f.phase[p] = 0
	}
	return f
}

// profile runs fn under the CPU profiler and folds its samples.
func (f *fold) profile(fn func() *round) (*round, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start profile: %w", err)
	}
	r := fn()
	pprof.StopCPUProfile()
	if err := f.add(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("fold profile: %w", err)
	}
	return r, nil
}

// layerOf maps a function name to its bucket, or "" for code outside the
// repository (runtime and standard library).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, l := range layerNames {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// add folds one gzipped pprof CPU profile. Each sample is charged to the
// innermost repository frame on its stack, so map and allocator time lands
// on the layer that called it; samples with no repository frame
// (background GC, scavenger, profiler) go to runtime.gc.
func (f *fold) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if p.valueIdx >= len(s.values) {
			return errBadProfile
		}
		ms := float64(s.values[p.valueIdx]) / 1e6
		var stack []string // leaf first, inlined frames innermost first
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.name(fid))
			}
		}
		layer := "runtime.gc"
		for _, fn := range stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		f.layer[layer] += ms
		f.total += ms
	phases:
		for _, ph := range phaseFrames {
			for _, fn := range stack {
				for _, want := range ph.frames {
					if fn == want {
						f.phase[ph.phase] += ms
						break phases
					}
				}
			}
		}
	}
	return nil
}

var errBadProfile = errors.New("malformed pprof profile")

// pprofProfile is the part of the profile.proto message the fold reads.
type pprofProfile struct {
	strs     []string
	funcName map[uint64]uint64   // function id -> string-table index
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	samples  []pprofSample
	valueIdx int // index of the cpu-nanoseconds value
}

type pprofSample struct {
	locs   []uint64 // leaf first
	values []uint64
}

func (p *pprofProfile) name(fid uint64) string {
	if i := p.funcName[fid]; i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

// parseProfile decodes the fields of profile.proto the fold needs: the
// sample types (field 1), samples (2), locations (4), functions (5) and
// the string table (6).
func parseProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{funcName: map[uint64]uint64{}, locFuncs: map[uint64][]uint64{}}
	var sampleTypes []uint64 // string index of each value's type
	err := protoFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1:
			return protoFields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2:
			var s pprofSample
			err := protoFields(data, func(n int, v uint64, d []byte) error {
				var err error
				switch n {
				case 1:
					s.locs, err = appendInts(s.locs, v, d)
				case 2:
					s.values, err = appendInts(s.values, v, d)
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return protoFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := protoFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIdx = len(sampleTypes) - 1
	for i, st := range sampleTypes {
		if st < uint64(len(p.strs)) && p.strs[st] == "cpu" {
			p.valueIdx = i
		}
	}
	if p.valueIdx < 0 {
		return nil, errBadProfile
	}
	return p, nil
}

// protoFields calls fn for each field of one protobuf message: varint and
// fixed-width fields pass their value, length-delimited fields their bytes.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num := int(key >> 3)
		var (
			v    uint64
			data []byte
		)
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProfile
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProfile
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProfile
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts decodes a repeated integer field, packed (data non-nil) or
// not.
func appendInts(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errBadProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
