// Package workload drives the paper's Table 1 benchmarks through the
// simulator: it populates each data structure (InitOps, fast-forwarded
// functionally, as in §5.2), then streams SimOps traced operations into the
// timing model under a chosen variant.
package workload

import (
	"fmt"
	"math/rand"
	"sync"

	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
)

// Bench describes one Table 1 benchmark.
type Bench struct {
	Name    string // abbreviation (GH, HM, LL, SS, AT, BT, RT)
	Desc    string
	InitOps int // operations executed in fast-forward to populate
	SimOps  int // operations measured in the timing simulator
	// Keyspace is the operation-key range; it bounds the structure size
	// (an operation deletes present keys and inserts absent ones).
	Keyspace uint64
	// LogCap is the undo-log capacity in line entries (trees need room for
	// full logging of deep paths).
	LogCap int
}

// Table1 returns the paper's benchmarks with their Table 1 parameters.
func Table1() []Bench {
	return []Bench{
		{Name: "GH", Desc: "Insert or delete edges in a graph", InitOps: 2600000, SimOps: 100000, Keyspace: 1 << 48, LogCap: 64},
		{Name: "HM", Desc: "Insert or delete entries in a hash map", InitOps: 1500000, SimOps: 100000, Keyspace: 3000000, LogCap: 64},
		{Name: "LL", Desc: "Insert or delete nodes in a linked list (Max:1024)", InitOps: 500, SimOps: 50000, Keyspace: 1024, LogCap: 64},
		{Name: "SS", Desc: "Swap strings in a string array", InitOps: 120000, SimOps: 500000, Keyspace: 1 << 48, LogCap: 64},
		{Name: "AT", Desc: "Insert or delete nodes in an AVL tree", InitOps: 1000000, SimOps: 50000, Keyspace: 2000000, LogCap: 1024},
		{Name: "BT", Desc: "Insert or delete nodes in a B tree", InitOps: 1000000, SimOps: 50000, Keyspace: 2000000, LogCap: 1024},
		{Name: "RT", Desc: "Insert or delete nodes in an RB tree", InitOps: 1500000, SimOps: 50000, Keyspace: 3000000, LogCap: 2048},
	}
}

// FindBench returns the Table 1 benchmark with the given abbreviation.
func FindBench(name string) (Bench, error) {
	for _, b := range Table1() {
		if b.Name == name {
			return b, nil
		}
	}
	return Bench{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// RunConfig parameterizes one simulation run.
type RunConfig struct {
	Variant core.Variant
	// Scale multiplies InitOps, SimOps and size parameters so the suite
	// runs at laptop scale; 1.0 reproduces the paper's sizes.
	Scale float64
	// Seed drives the operation key stream (same seed => same functional
	// work across variants).
	Seed int64
	// Options configures the simulated machine; nil means the Table 2
	// defaults. Either way the run resolves it for the variant
	// (core.Options.For), so a speculative variant gets SP256 unless the
	// Options enable SP at other sizes (Figure 13 sweeps, ablations).
	Options *core.Options
	// IncrementalBT switches the B-tree benchmark to incremental logging
	// (the §3.2 alternative the paper rejects); ignored elsewhere.
	IncrementalBT bool
	// MaxTraceOps caps the traced operations regardless of scale (0 =
	// no cap).
	MaxTraceOps int
	// OpOverhead is the length of the dependent ALU chain emitted at the
	// start of every operation, modeling the application work around the
	// data-structure update that compiled code performs (key generation,
	// allocation, call overhead). Negative disables; 0 means the default.
	OpOverhead int
	// Timeline, when non-nil, records cycle-resolved events for the run
	// (spsim -timeline). It never changes simulated timing or the Result,
	// so it is deliberately excluded from the job fingerprint — but note
	// that a cached sweep result therefore arrives with an empty timeline.
	Timeline *obs.Timeline
}

// Machine returns the machine the run simulates: Options, or the Table 2
// defaults, resolved for the variant.
func (rc RunConfig) Machine() core.Options {
	o := core.DefaultOptions()
	if rc.Options != nil {
		o = *rc.Options
	}
	return o.For(rc.Variant)
}

// DefaultOpOverhead approximates the serial application work per operation
// in the paper's compiled benchmarks (random key generation, allocator,
// call frames, full x86 instruction footprints), which our abstract traces
// would otherwise omit. Calibrated so that the Figure 8 variant ordering
// and the SP headline (fences nearly free under SP) reproduce; see
// EXPERIMENTS.md.
const DefaultOpOverhead = 1600

// EffectiveOpOverhead resolves the OpOverhead knob: the default chain
// length when 0, and 0 (no preamble) when negative.
func (rc RunConfig) EffectiveOpOverhead() int {
	if rc.OpOverhead < 0 {
		return 0
	}
	if rc.OpOverhead == 0 {
		return DefaultOpOverhead
	}
	return rc.OpOverhead
}

// DefaultScale is the harness default: large enough for stable shapes,
// small enough for a laptop test cycle.
const DefaultScale = 0.01

// EffectiveScale resolves the Scale knob (non-positive means the default).
func (rc RunConfig) EffectiveScale() float64 {
	if rc.Scale <= 0 {
		return DefaultScale
	}
	return rc.Scale
}

func scaled(n int, s float64, minimum int) int {
	v := int(float64(n) * s)
	if v < minimum {
		return minimum
	}
	return v
}

// Result is the outcome of one run.
type Result struct {
	Bench   string
	Variant core.Variant
	SimOps  int
	Stats   cpu.Stats
	Txn     txn.Stats // zero for the Base variant
	// Metrics is the unified counter snapshot of the whole run — every
	// component's counters under canonical dotted keys ("cpu.*", "cache.*",
	// "mem.*", "pmem.*", "txn.*"). Keys are stable across runs of the same
	// configuration, and JSON-marshal in sorted order, so serialized
	// results are byte-deterministic.
	Metrics obs.Snapshot `json:",omitempty"`
}

// structConfig sizes the structure-specific parameters for a scale.
func structConfig(b Bench, s float64) pstruct.Config {
	cfg := pstruct.DefaultConfig()
	switch b.Name {
	case "GH":
		cfg.GraphVerts = scaled(4096, s, 64)
	case "HM":
		cfg.HashCapacity = scaled(1<<21, s, 64)
	case "SS":
		cfg.Strings = scaled(120000, s, 16)
	}
	return cfg
}

// keyFor derives the operation key stream; for non-SS benchmarks keys fall
// in the (scaled) keyspace, so deletions and insertions alternate as keys
// recur.
func keyFor(b Bench, rng *rand.Rand, keyspace uint64) uint64 {
	if b.Name == "SS" || b.Name == "GH" {
		return rng.Uint64()
	}
	return rng.Uint64() % keyspace
}

// opSource lazily generates the traced operations: it refills its buffer by
// functionally executing the next operation, so the full trace never
// materializes in memory.
type opSource struct {
	buf  trace.Buffer
	next func() bool // emit one more op into buf; false when done
}

// Next implements trace.Source.
func (o *opSource) Next() (isa.Instr, bool) {
	for {
		if in, ok := o.buf.Next(); ok {
			return in, true
		}
		o.buf.Reset()
		if !o.next() {
			return isa.Instr{}, false
		}
	}
}

// NextBlock implements trace.BlockSource: the simulator consumes each
// generated operation's records (its preamble as one chain record) as one
// slab. The returned slice aliases the regeneration buffer and is
// invalidated by the next refill, per the BlockSource contract.
func (o *opSource) NextBlock() []isa.Instr {
	for {
		if blk := o.buf.NextBlock(); len(blk) > 0 {
			return blk
		}
		o.buf.Reset()
		if !o.next() {
			return nil
		}
	}
}

// Generator is a benchmark's measured phase: the structure populated the
// way Run populates it (InitOps fast-forwarded functionally, §5.2), and the
// seeded operation stream Run feeds the timing model. Each Next emits one
// traced operation — the application preamble chain, then the structure
// update — into the generator's sink. cmd/tracer records the same stream to
// a file, so a recording replays the run spsim simulates.
type Generator struct {
	m        *pstruct.Machine // its Mgr is nil for the Base variant
	bld      *trace.Builder
	rng      *rand.Rand
	b        Bench
	keyspace uint64
	overhead int
	simOps   int
	done     int
}

// image is a populated structure, the state NewGenerator forks for every
// run: the machine after the fast-forward and its PersistAll, and its
// keyspace. Once built it is read-only; each run works on a fork of it.
type image struct {
	m        *pstruct.Machine
	keyspace uint64
}

// populate builds b's structure for rc and fast-forwards its InitOps
// functionally (no trace, §5.2), then checks the structure's invariants.
func populate(b Bench, rc RunConfig) (*image, error) {
	s := rc.EffectiveScale()
	env := exec.New()
	env.Level = rc.Variant.Level()
	logCap := 0
	if rc.Variant.Transactional() {
		logCap = b.LogCap
	}
	m := pstruct.NewMachine(env, b.Name, logCap, structConfig(b, s))
	if bt, ok := m.St.(*pstruct.BTree); ok && rc.IncrementalBT {
		bt.SetIncremental(true)
	}

	keyspace := b.Keyspace
	if b.Name != "GH" && b.Name != "SS" && b.Name != "LL" {
		keyspace = uint64(scaled(int(b.Keyspace), s, 128))
	}

	rng := rand.New(rand.NewSource(rc.Seed + 1))
	initOps := scaled(b.InitOps, s, 16)
	if b.Name == "SS" {
		initOps = 0 // the array is fully populated at construction
	}
	if b.Name == "LL" {
		initOps = b.InitOps // tiny already; paper value unscaled
	}
	m.Warm(initOps, func() uint64 { return keyFor(b, rng, keyspace) })
	// Check reads through the model, so its pmem.loads land in the
	// image's counters, which every fork carries. It is not repeated on a
	// fork: a second check would add its loads to the run's metrics.
	if err := m.St.Check(); err != nil {
		return nil, fmt.Errorf("workload %s: after init: %w", b.Name, err)
	}
	return &image{m: m, keyspace: keyspace}, nil
}

// imageKey is everything populate reads from its arguments. Base and Log
// share a level but only Log builds an undo log, so both the level and
// transactionality are in the key.
type imageKey struct {
	b             Bench
	scale         float64
	seed          int64
	level         exec.Level
	transactional bool
	incrementalBT bool
}

// imageEntry is one key's image, built at most once.
type imageEntry struct {
	key  imageKey
	once sync.Once
	img  *image
	err  error
}

// imageSlot holds the most recently requested key's image. The callers
// that run many configurations (simbench's paper-suite round, Suite.grid,
// the in-order sweep.Pool) run a bench's variants next to each other, so
// one slot lets Log+P+Sf and SP share one population, and the slot never
// holds more than one image. What the slot holds changes only how long a
// run takes, never its Result.
var imageSlot struct {
	mu sync.Mutex
	e  *imageEntry
}

// cachedImage returns rc's populated image for b, building it unless the
// slot already holds it. Concurrent callers with the same key share one
// build; the build runs outside the lock, so other keys never wait on it.
func cachedImage(b Bench, rc RunConfig) (*image, error) {
	k := imageKey{
		b: b, scale: rc.EffectiveScale(), seed: rc.Seed,
		level: rc.Variant.Level(), transactional: rc.Variant.Transactional(),
		incrementalBT: rc.IncrementalBT,
	}
	imageSlot.mu.Lock()
	e := imageSlot.e
	if e == nil || e.key != k {
		e = &imageEntry{key: k}
		imageSlot.e = e
	}
	imageSlot.mu.Unlock()
	e.once.Do(func() {
		// Stands if populate panics, for the callers waiting on once.
		e.err = fmt.Errorf("workload %s: population panicked", b.Name)
		e.img, e.err = populate(b, rc)
	})
	return e.img, e.err
}

// NewGenerator forks b's populated structure for rc (variant, scale, seed
// and the trace knobs) and returns the generator of its measured phase,
// emitting into sink. The structure is populated once per image key and
// forked for every run, so runs that share a key share no mutable state.
func NewGenerator(b Bench, rc RunConfig, sink trace.Sink) (*Generator, error) {
	img, err := cachedImage(b, rc)
	if err != nil {
		return nil, err
	}
	m := img.m.Fork()

	simOps := scaled(b.SimOps, rc.EffectiveScale(), 8)
	if rc.MaxTraceOps > 0 && simOps > rc.MaxTraceOps {
		simOps = rc.MaxTraceOps
	}
	bld := trace.NewBuilder(sink)
	m.Env.SetBuilder(bld)
	return &Generator{
		m: m, bld: bld, b: b, keyspace: img.keyspace,
		rng:      rand.New(rand.NewSource(rc.Seed + 2)),
		overhead: rc.EffectiveOpOverhead(),
		simOps:   simOps,
	}, nil
}

// Next emits the next measured operation; it returns false once all
// SimOps have been emitted.
func (g *Generator) Next() bool {
	if g.done >= g.simOps {
		return false
	}
	g.done++
	// Application preamble: serial dependent work (key generation,
	// allocation, frame setup).
	g.bld.Chain(g.overhead)
	g.m.St.Apply(keyFor(g.b, g.rng, g.keyspace))
	return true
}

// SimOps reports how many operations the measured phase emits.
func (g *Generator) SimOps() int { return g.simOps }

// Check verifies the structure's invariants.
func (g *Generator) Check() error { return g.m.St.Check() }

// Run executes one benchmark under one configuration and returns the
// timing statistics.
func Run(b Bench, rc RunConfig) (Result, error) {
	// Populate, then stream the measured phase's traced operations into
	// the simulator as the core fetches them.
	src := &opSource{}
	gen, err := NewGenerator(b, rc, &src.buf)
	if err != nil {
		return Result{}, err
	}
	src.next = gen.Next

	sys := core.New(rc.Machine(), rc.Timeline)
	// Fold the functional layers into the system registry so one snapshot
	// covers the whole run.
	gen.m.Register(sys.Obs())
	stats := sys.Run(src)

	if err := gen.Check(); err != nil {
		return Result{}, fmt.Errorf("workload %s: after sim: %w", b.Name, err)
	}
	res := Result{Bench: b.Name, Variant: rc.Variant, SimOps: gen.simOps, Stats: stats, Metrics: sys.Metrics()}
	if gen.m.Mgr != nil {
		res.Txn = gen.m.Mgr.Stats()
	}
	return res, nil
}

// MustRun is Run panicking on error (experiment drivers).
func MustRun(b Bench, rc RunConfig) Result {
	r, err := Run(b, rc)
	if err != nil {
		panic(err)
	}
	return r
}
