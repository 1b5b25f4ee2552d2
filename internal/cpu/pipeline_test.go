package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specpersist/internal/isa"
	"specpersist/internal/trace"
)

// randomTrace builds a valid random instruction stream mixing compute,
// memory, persistence and fences.
func randomTrace(rng *rand.Rand, n int) *trace.Buffer {
	var buf trace.Buffer
	bld := trace.NewBuilder(trace.NewValidator(&buf))
	var regs []isa.Reg
	dep := func() isa.Reg {
		if len(regs) == 0 || rng.Intn(3) == 0 {
			return isa.NoReg
		}
		return regs[rng.Intn(len(regs))]
	}
	for i := 0; i < n; i++ {
		addr := uint64(0x1000 + rng.Intn(1<<14)*8)
		switch rng.Intn(10) {
		case 0, 1, 2:
			regs = append(regs, bld.ALU(rng.Intn(3), dep(), dep()))
		case 3, 4:
			regs = append(regs, bld.Load(addr, 8, dep()))
		case 5, 6:
			bld.Store(addr, 8, dep(), dep())
		case 7:
			bld.Clwb(addr)
		case 8:
			bld.Sfence()
			bld.Pcommit()
			bld.Sfence()
		case 9:
			switch rng.Intn(3) {
			case 0:
				bld.Sfence()
			case 1:
				bld.Pcommit()
			case 2:
				bld.Clflushopt(addr)
			}
		}
	}
	return &buf
}

// Property: any valid trace runs to completion on any hardware config, and
// every instruction commits exactly once.
func TestQuickRandomTracesComplete(t *testing.T) {
	configs := []SPConfig{
		{},
		DefaultSPConfig(),
		{Enabled: true, SSBEntries: 32, Checkpoints: 1, BloomBytes: 64, UseBloom: true, CollapseBarrierPair: true, DelayPMEMOps: true},
		{Enabled: true, SSBEntries: 64, Checkpoints: 2, BloomBytes: 512, UseBloom: false, CollapseBarrierPair: false, DelayPMEMOps: true},
		{Enabled: true, SSBEntries: 256, Checkpoints: 4, BloomBytes: 512, UseBloom: true, CollapseBarrierPair: true, DelayPMEMOps: false},
	}
	f := func(seed int64, cfgIdx uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTrace(rng, 200+rng.Intn(400))
		want := uint64(tb.Len())
		c, _ := newSystem(configs[int(cfgIdx)%len(configs)])
		st := c.Run(tb)
		return st.Committed == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: SP never changes the committed instruction count and never
// loses persistence operations (same pcommit/clwb counts as the stalling
// pipeline).
func TestQuickSPPreservesWork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTrace(rng, 300)

		c1, _ := newSystem(SPConfig{})
		st1 := c1.Run(tb)
		tb.Rewind()
		c2, _ := newSystem(DefaultSPConfig())
		st2 := c2.Run(tb)
		return st1.Committed == st2.Committed &&
			st1.Pcommits == st2.Pcommits &&
			st1.Clwbs+st1.Clflushes == st2.Clwbs+st2.Clflushes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: all persistence work reaches the memory controller under SP:
// the number of NVMM line writes matches the stall pipeline's.
func TestQuickSPPreservesNVMMWrites(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := randomTrace(rng, 250)
		c1, mc1 := newSystem(SPConfig{})
		c1.Run(tb)
		tb.Rewind()
		c2, mc2 := newSystem(DefaultSPConfig())
		c2.Run(tb)
		// Write counts may differ slightly through eviction timing, but
		// flush-driven writebacks must match.
		return mc1.Stats().Writes == mc2.Stats().Writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMfenceBehavesLikeSfence(t *testing.T) {
	c, _ := newSystem(SPConfig{})
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.bld.Clwb(0x1000)
	tb.bld.Mfence()
	tb.bld.Pcommit()
	tb.bld.Mfence()
	st := c.Run(tb.buf)
	if st.Cycles < 315 {
		t.Errorf("mfence barrier completed in %d cycles", st.Cycles)
	}
	if st.Sfences != 2 {
		t.Errorf("fences counted = %d", st.Sfences)
	}
}

func TestClflushPath(t *testing.T) {
	c, mc := newSystem(SPConfig{})
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.buf.Emit(isa.Instr{Op: isa.Clflush, Addr: 0x1000})
	tb.bld.Sfence()
	st := c.Run(tb.buf)
	if st.Clflushes != 1 {
		t.Errorf("Clflushes = %d", st.Clflushes)
	}
	if mc.Stats().Writes != 1 {
		t.Errorf("controller writes = %d", mc.Stats().Writes)
	}
}

func TestLSQPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LSQ = 4
	c, _ := newSystemWithCfg(cfg)
	tb := newB()
	// A long dependent-load chain; LSQ of 4 throttles dispatch but must
	// not deadlock.
	dep := isa.NoReg
	for i := 0; i < 64; i++ {
		dep = tb.bld.Load(uint64(0x1000+i*64), 8, dep)
	}
	st := c.Run(tb.buf)
	if st.Committed != 64 {
		t.Errorf("committed %d of 64", st.Committed)
	}
}

func TestROBFill(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROB = 8
	cfg.IssueQ = 8
	c, _ := newSystemWithCfg(cfg)
	tb := newB()
	r := tb.bld.Load(0x100000, 8, isa.NoReg) // long miss at the head
	for i := 0; i < 40; i++ {
		tb.bld.ALU(0)
	}
	tb.bld.ALU(0, r)
	st := c.Run(tb.buf)
	if st.Committed != 42 {
		t.Errorf("committed %d of 42", st.Committed)
	}
}

func TestFastBarrierWithEmptyWPQ(t *testing.T) {
	c, _ := newSystem(SPConfig{})
	tb := newB()
	// A barrier with nothing pending completes in ~ack latency, not 315.
	tb.bld.Sfence()
	tb.bld.Pcommit()
	tb.bld.Sfence()
	st := c.Run(tb.buf)
	if st.Cycles > 60 {
		t.Errorf("empty barrier took %d cycles", st.Cycles)
	}
}

func TestSfenceSfenceBoundary(t *testing.T) {
	// Two consecutive sfences inside a speculative region exercise the
	// plain (no-pcommit) child-epoch boundary.
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000) // enter speculation
	tb.bld.Store(0x2000, 8, isa.NoReg, isa.NoReg)
	tb.bld.Sfence()
	tb.bld.Sfence()
	tb.bld.Store(0x3000, 8, isa.NoReg, isa.NoReg)
	st := c.Run(tb.buf)
	if st.Committed != uint64(tb.buf.Len()) {
		t.Errorf("committed %d of %d", st.Committed, tb.buf.Len())
	}
	if st.SpecEpochs < 2 {
		t.Errorf("SpecEpochs = %d, want >= 2", st.SpecEpochs)
	}
}

func TestTailDrainOrdering(t *testing.T) {
	// After all epochs commit, remaining SSB entries drain before new
	// stores bypass them; the final memory state ordering is preserved by
	// construction (FIFO through the SSB tail).
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000)
	for i := 0; i < 30; i++ {
		tb.bld.Store(uint64(0x2000+i*64), 8, isa.NoReg, isa.NoReg)
	}
	// A final fence forces everything (epochs + tail) to drain.
	tb.bld.Sfence()
	st := c.Run(tb.buf)
	if st.Committed != uint64(tb.buf.Len()) {
		t.Errorf("committed %d of %d", st.Committed, tb.buf.Len())
	}
}

func TestRollbackWithMultipleEpochs(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000)
	tb.bld.Store(0x3000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x3000)
	tb.bld.Store(0x4000, 8, isa.NoReg, isa.NoReg)
	for i := 0; i < 400; i++ {
		tb.bld.ALU(0)
	}
	c.src = tb.buf
	probed := false
	for i := 0; i < 200000 && !c.finished(); i++ {
		progress := c.retire()
		progress = c.commitEngineStep() || progress
		progress = c.drainStoreBuffer() || progress
		progress = c.issue() || progress
		progress = c.dispatch() || progress
		progress = c.fetch() || progress
		if progress {
			c.now++
		} else {
			c.now = c.nextEvent()
		}
		if !probed && len(c.epochs) >= 2 && c.blt.Conflicts(0x4000) {
			if c.Probe(0x4000) != ProbeRollback {
				t.Fatal("multi-epoch probe did not roll back")
			}
			probed = true
			if c.ckpts.Used() != 0 {
				t.Fatalf("checkpoints leaked after rollback: %d", c.ckpts.Used())
			}
		}
	}
	if !probed {
		t.Skip("never reached two live epochs with 0x4000 recorded")
	}
	st := c.Stats()
	if st.Rollbacks != 1 {
		t.Errorf("Rollbacks = %d", st.Rollbacks)
	}
}

func TestPcommitInTailMode(t *testing.T) {
	// A pcommit retiring while the SSB tail drains is deferred into the
	// SSB and executes at drain time.
	c, mc := newSystem(DefaultSPConfig())
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000)
	for i := 0; i < 20; i++ {
		tb.bld.Store(uint64(0x2000+i*64), 8, isa.NoReg, isa.NoReg)
	}
	tb.bld.Clwb(0x2000)
	tb.bld.Pcommit() // no fence before it: free-floating pcommit
	st := c.Run(tb.buf)
	if st.Committed != uint64(tb.buf.Len()) {
		t.Errorf("committed %d of %d", st.Committed, tb.buf.Len())
	}
	if mc.Stats().Pcommits < 2 {
		t.Errorf("controller pcommits = %d, want >= 2", mc.Stats().Pcommits)
	}
}
