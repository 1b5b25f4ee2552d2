package cpu

import (
	"math"
	"reflect"
	"testing"

	"specpersist/internal/cache"
	"specpersist/internal/isa"
	"specpersist/internal/memctl"
	"specpersist/internal/obs"
	"specpersist/internal/trace"
)

// The chain fast-forward is checked three ways on every program: in
// lockstep against single Steps of the same fast path, comparing the whole
// scheduler state after every StepTo (so a batch must leave exactly what
// its cycles would); and at the end against the reference scheduler
// (Stats, commit log, metric snapshot). The lockstep runs twice: once with
// the fast path reading the expanded stream in cut blocks, and once reading
// the trace.Buffer's chain records, so a record and its expansion must
// leave identical core state.

// cutSource is a seekable block source that splits its stream into blocks
// at the given positions, so chains can end exactly at a block boundary.
type cutSource struct {
	ins  []isa.Instr
	cuts []int // ascending block boundaries
	pos  int
}

func (s *cutSource) Next() (isa.Instr, bool) {
	if s.pos >= len(s.ins) {
		return isa.Instr{}, false
	}
	s.pos++
	return s.ins[s.pos-1], true
}

func (s *cutSource) NextBlock() []isa.Instr {
	end := len(s.ins)
	for _, c := range s.cuts {
		if c > s.pos && c < end {
			end = c
			break
		}
	}
	blk := s.ins[s.pos:end]
	s.pos = end
	return blk
}

func (s *cutSource) Seek(pos uint64) { s.pos = int(pos) }

// chainProg is one decoded fuzz program: a shrunk core, a trace mixing
// preamble chains with persist-barrier bodies, block cuts, and a probe
// period (0 = no probes) at which every store line is probed.
type chainProg struct {
	cfg        Config
	ins        []isa.Instr // the expanded stream
	recs       []isa.Instr // the buffer's records: chains as isa.Chain
	cuts       []int
	lines      []uint64
	probeEvery uint64
}

var chainLens = []int{1, 47, 48, 49, 200, 1600}

// decodeChainProg turns fuzz bytes into a program: six header bytes size
// the core and pick SP and the probe period, then (op, arg) pairs append
// trace segments.
func decodeChainProg(data []byte) chainProg {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	cfg := DefaultConfig()
	cfg.ROB = 2 + at(0)%128
	cfg.IssueQ = 1 + at(1)%48
	cfg.FetchQ = 1 + at(2)%48
	cfg.FetchWidth = 1 + at(3)%4
	cfg.IssueWidth = 1 + at(3)>>2%4
	cfg.RetireWidth = 1 + at(3)>>4%4
	cfg.IssueWindow = 1 + at(4)%32
	cfg.LSQ = 1 + at(4)>>5*8
	if at(5)&1 == 1 {
		cfg.SP = DefaultSPConfig()
	}
	p := chainProg{
		cfg:        cfg,
		lines:      []uint64{0x1000, 0x1040, 0x2000, 0x2040},
		probeEvery: uint64(at(5)>>1) * 16,
	}
	var buf trace.Buffer
	bld := trace.NewBuilder(&buf)
	last := func() isa.Reg { return isa.Reg(bld.RegCount()) }
	for i := 6; i+1 < len(data) && buf.Len() < 8000; i += 2 {
		op, arg := data[i]%8, int(data[i+1])
		line := p.lines[arg%len(p.lines)]
		switch op {
		case 0:
			bld.Chain(1 + arg)
		case 1:
			bld.Chain(chainLens[arg%len(chainLens)])
		case 2: // one logged update behind the canonical persist barrier
			v := bld.Load(line, 8, isa.NoReg)
			bld.Store(line, 8, v, isa.NoReg)
			bld.Clwb(line)
			bld.Sfence()
			bld.Pcommit()
			bld.Sfence()
		case 3:
			p.cuts = append(p.cuts, buf.Len())
		case 4:
			bld.Sfence()
		case 5:
			bld.ALU(arg%4, last())
		case 6:
			bld.Store(line+uint64(arg>>2%8)*8, 8, last(), isa.NoReg)
		case 7:
			if arg%2 == 0 {
				bld.Pcommit()
			} else {
				bld.Clflushopt(line)
			}
		}
	}
	p.ins = buf.Instrs()
	p.recs = append([]isa.Instr(nil), buf.NextBlock()...)
	return p
}

func (p chainProg) source() *cutSource { return &cutSource{ins: p.ins, cuts: p.cuts} }

// records returns a buffer holding the program's chain records.
func (p chainProg) records() *trace.Buffer {
	b := &trace.Buffer{}
	for _, r := range p.recs {
		b.Emit(r)
	}
	return b
}

// newChainCore builds a core over a private memory system with its
// counters registered and its commit log on.
func newChainCore(cfg Config) (*CPU, *obs.Registry) {
	mc := memctl.New(memctl.DefaultConfig())
	h := cache.New(cache.DefaultConfig(), mc)
	c := New(cfg, h, mc)
	reg := obs.NewRegistry()
	c.Register(reg)
	h.Register(reg)
	mc.Register(reg)
	c.EnableCommitLog()
	return c, reg
}

// chainSnap is the scheduler state a fast-forward must reproduce: the live
// fetch-queue and ROB windows, the scoreboard by register, the wake heap,
// the unissued list, the counters, the fetch position and the open
// barrier-stall span.
type chainSnap struct {
	Now, Seq, FetchPos, FenceBlockedAt       uint64
	BlkPos, FqHead, RobHead, RobLen          int
	Unissued, ReadyCount, PlainUnissued, LSQ int
	UnissHead, UnissTail                     int32
	FetchDst                                 isa.Reg
	SrcDone                                  bool
	Fq                                       []isa.Instr
	FqLink                                   []bool
	Rob                                      []robEntry
	Sbrd                                     map[uint32]sbdSlot
	Wakes                                    []wake
	Stats                                    Stats
	IdleSteps                                int
}

func snapChain(c *CPU) chainSnap {
	s := chainSnap{
		Now: c.now, Seq: c.seq, FetchPos: c.fetchPos,
		BlkPos: c.blkPos, FqHead: c.fqHead, RobHead: c.robHead, RobLen: c.robLen,
		Unissued: c.unissued, ReadyCount: c.readyCount, PlainUnissued: c.plainUnissued, LSQ: c.lsqCount,
		UnissHead: c.unissHead, UnissTail: c.unissTail, FetchDst: c.fetchDst, SrcDone: c.srcDone,
		Sbrd:  map[uint32]sbdSlot{},
		Wakes: append([]wake(nil), c.wakes...),
		Stats: c.Stats(), IdleSteps: c.idleSteps, FenceBlockedAt: c.fenceBlockedAt,
	}
	for i := 0; i < c.fqLen; i++ {
		j := (c.fqHead + i) % len(c.fq)
		s.Fq = append(s.Fq, c.fq[j])
		s.FqLink = append(s.FqLink, c.fqLink[j])
	}
	for i := 0; i < c.robLen; i++ {
		s.Rob = append(s.Rob, c.rob[c.robSlot(i)])
	}
	for _, sl := range c.sbrd.slots {
		if sl.key != 0 {
			s.Sbrd[sl.key] = sl
		}
	}
	return s
}

// probeLines probes every store line until one rolls the core back.
func probeLines(c *CPU, lines []uint64) {
	for _, l := range lines {
		if c.Probe(l) == ProbeRollback {
			return
		}
	}
}

// runChainProg checks one program and returns how many StepTo calls and
// how many single Steps the run over cut blocks took.
func runChainProg(t *testing.T, p chainProg) (calls, steps int) {
	t.Helper()
	a, aReg, calls, steps := lockstep(t, p, p.source())
	lockstep(t, p, p.records())
	ref, refReg := newChainCore(p.cfg)
	ref.SetReferenceStepping(true)
	ref.Start(p.source())
	for fire := p.next(0); ref.StepTo(fire); {
		if ref.now >= fire {
			probeLines(ref, p.lines)
			fire = p.next(fire)
		}
	}
	if as, rs := a.Stats(), ref.Stats(); as != rs {
		t.Fatalf("stats diverge from the reference scheduler:\nfast %+v\nref  %+v", as, rs)
	}
	if !reflect.DeepEqual(a.CommitLog(), ref.CommitLog()) {
		t.Fatalf("commit logs diverge (fast %d events, ref %d)", len(a.CommitLog()), len(ref.CommitLog()))
	}
	if !reflect.DeepEqual(aReg.Snapshot(), refReg.Snapshot()) {
		t.Fatal("metric snapshots diverge from the reference scheduler")
	}
	return calls, steps
}

// lockstep runs the program through StepTo over src and through single
// Steps over the expanded stream in cut blocks, probing both at the same
// cycles, and requires identical scheduler state after every StepTo. The
// block position is compared only when src is cut blocks too: a chain
// record covers many positions of the expansion.
func lockstep(t *testing.T, p chainProg, src trace.Source) (a *CPU, aReg *obs.Registry, calls, steps int) {
	t.Helper()
	a, aReg = newChainCore(p.cfg)
	b, _ := newChainCore(p.cfg)
	a.Start(src)
	b.Start(p.source())
	_, cut := src.(*cutSource)
	fire := p.next(0)
	for {
		calls++
		if !a.StepTo(fire) {
			if b.Step() {
				t.Fatalf("fast-forward core finished at cycle %d, single-stepped core did not", a.now)
			}
			break
		}
		for b.now < a.now {
			if !b.Step() {
				t.Fatalf("single-stepped core finished at cycle %d before %d", b.now, a.now)
			}
			steps++
		}
		sa, sb := snapChain(a), snapChain(b)
		if !cut {
			sa.BlkPos, sb.BlkPos = 0, 0
		}
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("state diverges at cycle %d (after %d StepTo calls over %T):\nstepTo %+v\nstep   %+v", a.now, calls, src, sa, sb)
		}
		if a.now >= fire {
			probeLines(a, p.lines)
			probeLines(b, p.lines)
			fire = p.next(fire)
		}
	}
	return a, aReg, calls, steps
}

// next returns the probe cycle after fire (never, without probes).
func (p chainProg) next(fire uint64) uint64 {
	if p.probeEvery == 0 {
		return math.MaxUint64
	}
	return fire + p.probeEvery
}

// chainSeed builds a fuzz input from a header and (op, arg) pairs.
func chainSeed(header [6]byte, body ...byte) []byte {
	return append(header[:], body...)
}

// Headers for the Table 2 core (ROB 128, issue and fetch queues 48,
// 4-wide, window 32), fenced and SP, and for a shrunk 2-wide one.
var (
	wideLogP = [6]byte{126, 47, 47, 0xFF, 0xFF, 0}
	wideSP   = [6]byte{126, 47, 47, 0xFF, 0xFF, 1}
	shrunkSP = [6]byte{14, 5, 7, 0x15, 0xE7, 1}
)

// chainScenario is one program the fast-forward must get right, as a fuzz
// input. batches marks the ones it must also batch: under a quarter as
// many StepTo calls as Steps, over cut blocks and over chain records.
type chainScenario struct {
	name    string
	batches bool
	data    []byte
}

// chainSeeds are the scenarios: chains shorter than the issue queue, a
// chain cut at a block boundary, a pcommit whose ack lands mid-chain,
// one-wide and tiny cores, probes under SP, and one program per regime of
// the chain's lifetime.
var chainSeeds = []chainScenario{
	{"short chains between barriers", false,
		chainSeed(wideLogP, 0, 5, 2, 0, 0, 20, 2, 1, 0, 9)},
	{"chain cut by a block boundary", false,
		chainSeed(wideLogP, 0, 200, 3, 0, 0, 120, 0, 90)},
	{"fence stall then a 1,600-link chain, twice", true,
		chainSeed(wideLogP, 2, 0, 1, 5, 2, 1, 1, 5)},
	{"pcommit ack mid-chain under SP", false,
		chainSeed(wideSP, 2, 0, 1, 4, 2, 1, 1, 3, 6, 2, 0, 250)},
	{"every equivalence-suite chain length under SP", false,
		chainSeed(wideSP, 1, 0, 2, 0, 1, 1, 2, 1, 1, 2, 2, 2, 1, 3, 2, 3, 1, 4, 2, 0, 1, 5)},
	{"one-wide core, two-entry ROB", false,
		chainSeed([6]byte{0, 0, 0, 0, 0, 0}, 0, 60, 2, 0, 0, 30, 5, 2, 0, 40)},
	{"issue queue far below the ROB, long-latency ALUs between", false,
		chainSeed([6]byte{30, 3, 10, 0x55, 7, 1}, 0, 100, 5, 3, 0, 100, 2, 1, 0, 100)},
	{"SP probes every 80 cycles over mid-chain speculation", false,
		chainSeed([6]byte{126, 47, 47, 0xFF, 0xFF, 11}, 6, 1, 2, 1, 1, 4, 6, 3, 2, 3, 1, 4, 2, 0, 1, 3)},
	{"shrunk SP core, chains longer and shorter than its queues", false,
		chainSeed(shrunkSP, 2, 0, 0, 3, 1, 2, 2, 1, 0, 9, 3, 0, 1, 4, 7, 0, 0, 200)},
	// Fetch 4-wide, issue 2-wide into an 8-entry fetch queue: the queue
	// is full while dispatch still moves two links a cycle, until the
	// issue queue fills.
	{"full fetch queue, two-wide dispatch", false,
		chainSeed([6]byte{126, 47, 7, 0x37, 0xFF, 0}, 1, 4, 2, 0, 1, 5)},

	// Regimes, over barriers whose instructions issue at once. A 32-entry
	// ROB under a 48-entry issue queue fills behind the barrier's blocked
	// sfence, the fetch queue full behind it.
	{"fill: full ROB behind a blocked sfence, Log+P+Sf", true,
		chainSeed([6]byte{30, 47, 47, 0xFF, 0xFF, 0}, regimeBody(0, 250, 0, 250, 0, 250, 0, 250)...)},
	{"fill: full ROB behind a blocked sfence, SP", true,
		chainSeed([6]byte{30, 47, 47, 0xFF, 0xFF, 1}, regimeBody(0, 250, 0, 250, 0, 250, 0, 250)...)},
	// The Table 2 ROB fills one link a cycle under a 16-entry issue queue.
	{"fill: ROB not yet full", true,
		chainSeed([6]byte{126, 15, 47, 0xFF, 0xFF, 0}, regimeBody(0, 250, 0, 250, 0, 250, 0, 250)...)},
	// Six stores to one line sit in the store buffer; the clflushopt of
	// that line waits at the ROB head while it drains and links fill.
	{"fill: flush head behind a non-empty store buffer", true,
		chainSeed(wideLogP, append([]byte{6, 1, 6, 5, 6, 9, 6, 13, 6, 17, 6, 21, 7, 1, 0, 250},
			regimeBody(0, 250, 0, 250)...)...)},
	// After each barrier releases, the links behind it retire one or four
	// a cycle until the steady state.
	{"catch-up at RetireWidth 1", true,
		chainSeed([6]byte{126, 47, 47, 0x0F, 0xFF, 0}, regimeBody(0, 250, 0, 250, 0, 250)...)},
	{"catch-up at RetireWidth 4", true,
		chainSeed([6]byte{126, 47, 47, 0x3F, 0xFF, 0}, regimeBody(0, 250, 0, 250, 0, 250)...)},
	// Eight speculative stores wait in the SSB; the commit engine drains
	// one a cycle while the 1,600-link chain behind them runs.
	{"SP commit engine acting every cycle mid-chain", true,
		chainSeed(wideSP, append(regimeBody(0, 50),
			append([]byte{6, 1, 6, 5, 6, 9, 6, 13, 6, 17, 6, 21, 6, 25, 6, 29, 1, 5},
				regimeBody(1, 5)...)...)...)},
	// The body after each 1,600-link chain waits in the fetch queue while
	// the chain drains; its store then waits in the ROB on the last link.
	{"drain with the body behind the chain unissued", true,
		chainSeed(wideLogP, append([]byte{1, 5}, regimeBody(1, 5, 1, 5)...)...)},
}

// regimeBody returns, for each chain op (op, arg) given, the fuzz ops of a
// barrier with no register operands (clflushopt, sfence, pcommit, sfence)
// followed by that chain.
func regimeBody(chains ...byte) []byte {
	var ops []byte
	for i := 0; i+1 < len(chains); i += 2 {
		ops = append(ops, 7, 1, 4, 0, 7, 0, 4, 0, chains[i], chains[i+1])
	}
	return ops
}

func FuzzChainFastForward(f *testing.F) {
	for _, s := range chainSeeds {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runChainProg(t, decodeChainProg(data))
	})
}

// TestChainFastForwardBatches runs every scenario and requires the ones
// marked to batch, over cut blocks and over chain records.
func TestChainFastForwardBatches(t *testing.T) {
	for _, s := range chainSeeds {
		p := decodeChainProg(s.data)
		calls, steps := runChainProg(t, p)
		_, _, rcalls, rsteps := lockstep(t, p, p.records())
		t.Logf("%s: %d StepTo calls for %d steps (records: %d for %d)", s.name, calls, steps, rcalls, rsteps)
		if s.batches && calls*4 >= steps {
			t.Errorf("%s: %d StepTo calls for %d steps over cut blocks did not batch", s.name, calls, steps)
		}
		if s.batches && rcalls*4 >= rsteps {
			t.Errorf("%s: %d StepTo calls for %d steps over chain records did not batch", s.name, rcalls, rsteps)
		}
	}
}

// TestStepToHonoursCycleHook: with a cycle hook installed StepTo never
// batches, so the hook runs once per cycle exactly as under Step.
func TestStepToHonoursCycleHook(t *testing.T) {
	p := decodeChainProg(chainSeed(wideLogP, 1, 5, 2, 0, 1, 4))
	hooks := func(step func(*CPU) bool) int {
		c, _ := newChainCore(p.cfg)
		n := 0
		c.OnCycle(func(*CPU) { n++ })
		c.Start(p.source())
		for step(c) {
		}
		return n
	}
	batched := hooks(func(c *CPU) bool { return c.StepTo(math.MaxUint64) })
	single := hooks((*CPU).Step)
	if batched != single {
		t.Fatalf("cycle hook ran %d times under StepTo, %d under Step", batched, single)
	}
}

// inFlightLinks reports whether every fetch-queue and ROB entry is a chain
// link.
func inFlightLinks(c *CPU) bool {
	for i := 0; i < c.fqLen; i++ {
		if !c.fqLink[(c.fqHead+i)%len(c.fq)] {
			return false
		}
	}
	for i := 0; i < c.robLen; i++ {
		if !c.rob[c.robSlot(i)].link {
			return false
		}
	}
	return true
}

// TestChainForwardRollbackMidChain probes the speculating SP core right
// after each fast-forward (cut every 97 cycles by the horizon) while every
// in-flight instruction is a chain link, until three probes have rolled it
// back, so each rollback squashes a batched chain and the core refetches
// it from the checkpoint; the fast core reads cut blocks, then chain
// records. Single Steps of the fast path and the reference scheduler,
// probed at the same cycles, must end identically.
func TestChainForwardRollbackMidChain(t *testing.T) {
	p := decodeChainProg(chainSeed(wideSP, 2, 0, 1, 5, 2, 1, 1, 4, 2, 2, 1, 5, 2, 3, 1, 4))
	for _, src := range []func() trace.Source{
		func() trace.Source { return p.source() },
		func() trace.Source { return p.records() },
	} {
		fast, fastReg := newChainCore(p.cfg)
		fast.Start(src())
		var fires []uint64
		for {
			before := fast.now
			if !fast.StepTo((before/97 + 1) * 97) {
				break
			}
			if fast.stats.Rollbacks < 3 && fast.now-before > 1 && inFlightLinks(fast) && fast.speculating() {
				fires = append(fires, fast.now)
				probeLines(fast, p.lines)
			}
		}
		if fast.stats.Rollbacks == 0 {
			t.Fatalf("%T: no mid-chain rollback (%d probes)", src(), len(fires))
		}
		for _, ref := range []bool{false, true} {
			c, reg := newChainCore(p.cfg)
			c.SetReferenceStepping(ref)
			c.Start(p.source())
			i := 0
			for c.Step() {
				if i < len(fires) && c.now >= fires[i] {
					probeLines(c, p.lines)
					i++
				}
			}
			if fs, cs := fast.Stats(), c.Stats(); fs != cs {
				t.Errorf("%T, ref=%v: stats diverge:\nfast %+v\nstep %+v", src(), ref, fs, cs)
			}
			if !reflect.DeepEqual(fast.CommitLog(), c.CommitLog()) {
				t.Errorf("%T, ref=%v: commit logs diverge", src(), ref)
			}
			if !reflect.DeepEqual(fastReg.Snapshot(), reg.Snapshot()) {
				t.Errorf("%T, ref=%v: metric snapshots diverge", src(), ref)
			}
		}
	}
}
