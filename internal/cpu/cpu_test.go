package cpu

import (
	"testing"

	"specpersist/internal/cache"
	"specpersist/internal/isa"
	"specpersist/internal/memctl"
	"specpersist/internal/trace"
)

func newSystem(spc SPConfig) (*CPU, *memctl.Controller) {
	mc := memctl.New(memctl.DefaultConfig())
	h := cache.New(cache.DefaultConfig(), mc)
	cfg := DefaultConfig()
	cfg.SP = spc
	return New(cfg, h, mc), mc
}

func newSystemWithCfg(cfg Config) (*CPU, *memctl.Controller) {
	mc := memctl.New(memctl.DefaultConfig())
	h := cache.New(cache.DefaultConfig(), mc)
	return New(cfg, h, mc), mc
}

// b is a tiny trace-building helper for tests.
type b struct {
	buf *trace.Buffer
	bld *trace.Builder
}

func newB() *b {
	var buf trace.Buffer
	return &b{buf: &buf, bld: trace.NewBuilder(trace.NewValidator(&buf))}
}

// barrier emits clwb(addr...) then sfence-pcommit-sfence.
func (t *b) barrier(addrs ...uint64) {
	for _, a := range addrs {
		t.bld.Clwb(a)
	}
	t.bld.Sfence()
	t.bld.Pcommit()
	t.bld.Sfence()
}

func TestALUChainTiming(t *testing.T) {
	c, _ := newSystem(SPConfig{})
	tb := newB()
	// A dependent chain of 10 single-cycle ALU ops must take ~10 cycles,
	// not 10/4.
	r := tb.bld.ALU(0)
	for i := 0; i < 9; i++ {
		r = tb.bld.ALU(0, r)
	}
	st := c.Run(tb.buf)
	if st.Committed != 10 || st.ALUs != 10 {
		t.Fatalf("committed %d, ALUs %d", st.Committed, st.ALUs)
	}
	if st.Cycles < 10 {
		t.Errorf("dependent chain finished in %d cycles", st.Cycles)
	}
	if st.Cycles > 40 {
		t.Errorf("chain took %d cycles, too slow", st.Cycles)
	}
}

func TestIndependentALUsExploitWidth(t *testing.T) {
	c, _ := newSystem(SPConfig{})
	tb := newB()
	for i := 0; i < 64; i++ {
		tb.bld.ALU(0)
	}
	st := c.Run(tb.buf)
	// 64 independent ops on a 4-wide core: bounded well below 64 cycles.
	if st.Cycles > 40 {
		t.Errorf("64 independent ALUs took %d cycles", st.Cycles)
	}
}

func TestLoadMissLatencyDominates(t *testing.T) {
	c, _ := newSystem(SPConfig{})
	tb := newB()
	r := tb.bld.Load(0x10000, 8, isa.NoReg) // cold miss
	tb.bld.ALU(0, r)
	st := c.Run(tb.buf)
	// Cold miss ~ 33 + 105 + ack; the run must cost at least that.
	if st.Cycles < 130 {
		t.Errorf("cold-miss run took only %d cycles", st.Cycles)
	}
}

func TestPointerChaseSerializes(t *testing.T) {
	c, _ := newSystem(SPConfig{})
	tb := newB()
	dep := isa.NoReg
	for i := 0; i < 4; i++ {
		dep = tb.bld.Load(uint64(0x10000+i*0x4000), 8, dep)
	}
	st := c.Run(tb.buf)
	// Four dependent cold misses must serialize: >= 4 x ~138.
	if st.Cycles < 500 {
		t.Errorf("pointer chase took only %d cycles", st.Cycles)
	}
}

func TestBarrierStallsWithoutSP(t *testing.T) {
	noSP, _ := newSystem(SPConfig{})
	tb := newB()
	r := tb.bld.Load(0x10000, 8, isa.NoReg)
	tb.bld.Store(0x20000, 8, r, isa.NoReg)
	tb.barrier(0x20000)
	// Post-barrier work that could overlap.
	for i := 0; i < 100; i++ {
		tb.bld.ALU(0)
	}
	stall := noSP.Run(tb.buf)

	// The same trace with SP enabled must be significantly faster: the
	// pcommit (>= 315 cycles of WPQ drain) overlaps the trailing ALUs.
	withSP, _ := newSystem(DefaultSPConfig())
	tb.buf.Rewind()
	spst := withSP.Run(tb.buf)

	if spst.Cycles >= stall.Cycles {
		t.Fatalf("SP (%d cycles) not faster than stall (%d cycles)", spst.Cycles, stall.Cycles)
	}
	if spst.SpecEntries != 1 {
		t.Errorf("SpecEntries = %d, want 1", spst.SpecEntries)
	}
	if stall.Committed != spst.Committed {
		t.Errorf("committed mismatch: %d vs %d", stall.Committed, spst.Committed)
	}
}

func TestSfenceWaitsForPcommit(t *testing.T) {
	c, _ := newSystem(SPConfig{})
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000)
	st := c.Run(tb.buf)
	// The WPQ drain is 315 cycles; the second sfence must wait for it.
	if st.Cycles < 315 {
		t.Errorf("barrier completed in %d cycles, before the NVMM write drained", st.Cycles)
	}
	if st.Sfences != 2 || st.Pcommits != 1 || st.Clwbs != 1 {
		t.Errorf("op counts: %+v", st)
	}
}

func TestMultipleEpochsAcrossBarriers(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	// Three consecutive persist barriers with stores in between — the
	// shape of one WAL transaction (§3.1).
	for i := 0; i < 3; i++ {
		addr := uint64(0x1000 + i*0x40)
		tb.bld.Store(addr, 8, isa.NoReg, isa.NoReg)
		tb.barrier(addr)
	}
	for i := 0; i < 50; i++ {
		tb.bld.ALU(0)
	}
	st := c.Run(tb.buf)
	if st.SpecEpochs < 2 {
		t.Errorf("SpecEpochs = %d, want >= 2 (child epochs for later barriers)", st.SpecEpochs)
	}
	if st.CheckpointsMaxUsed < 2 {
		t.Errorf("CheckpointsMaxUsed = %d, want >= 2", st.CheckpointsMaxUsed)
	}
	if st.Committed != uint64(tb.buf.Len()) {
		t.Errorf("committed %d of %d", st.Committed, tb.buf.Len())
	}
}

func TestDelayedPMEMOpsReplayAtCommit(t *testing.T) {
	c, mc := newSystem(DefaultSPConfig())
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000) // enters speculation at the trailing sfence
	// In the shadow: a store and its clwb, delayed into the SSB.
	tb.bld.Store(0x2000, 8, isa.NoReg, isa.NoReg)
	tb.bld.Clwb(0x2000)
	st := c.Run(tb.buf)
	if st.DelayedPMEMOps == 0 {
		t.Error("no PMEM op was delayed")
	}
	// The delayed clwb must eventually reach the controller: 2 writes
	// total (the barrier's and the delayed one).
	if got := mc.Stats().Writes; got != 2 {
		t.Errorf("controller writes = %d, want 2", got)
	}
}

func TestCheckpointExhaustionStalls(t *testing.T) {
	spc := DefaultSPConfig()
	spc.Checkpoints = 2
	c, _ := newSystem(spc)
	tb := newB()
	// Many back-to-back barriers: more concurrent epochs than checkpoints.
	for i := 0; i < 6; i++ {
		addr := uint64(0x1000 + i*0x40)
		tb.bld.Store(addr, 8, isa.NoReg, isa.NoReg)
		tb.barrier(addr)
	}
	st := c.Run(tb.buf)
	if st.CheckpointsMaxUsed != 2 {
		t.Errorf("CheckpointsMaxUsed = %d, want cap 2", st.CheckpointsMaxUsed)
	}
	if st.CheckpointStalls == 0 {
		t.Error("no checkpoint stalls despite barrier pressure")
	}
	if st.Committed != uint64(tb.buf.Len()) {
		t.Errorf("committed %d of %d", st.Committed, tb.buf.Len())
	}
}

func TestSSBForwardsSpeculativeStores(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000)
	// Speculative store then a dependent load of the same address.
	tb.bld.Store(0x3000, 8, isa.NoReg, isa.NoReg)
	r := tb.bld.Load(0x3000, 8, isa.NoReg)
	tb.bld.ALU(0, r)
	st := c.Run(tb.buf)
	if st.SSBForwards == 0 {
		t.Error("load of a speculative store did not forward from the SSB")
	}
	if st.BloomQueries == 0 || st.BloomPositives == 0 {
		t.Errorf("bloom stats: %d queries, %d positives", st.BloomQueries, st.BloomPositives)
	}
}

func TestBloomNegativeSkipsSSB(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000)
	tb.bld.Store(0x3000, 8, isa.NoReg, isa.NoReg)
	// A dependent load of the speculative store anchors the chain inside
	// the speculative window; the unrelated loads behind it must be
	// screened by the Bloom filter.
	dep := tb.bld.Load(0x3000, 8, isa.NoReg)
	for i := 0; i < 16; i++ {
		dep = tb.bld.Load(uint64(0x100000+i*0x40), 8, dep)
	}
	st := c.Run(tb.buf)
	if st.BloomQueries < 2 {
		t.Errorf("BloomQueries = %d", st.BloomQueries)
	}
	if st.BloomPositives > st.BloomQueries/2 {
		t.Errorf("bloom positives %d of %d queries — filter not screening", st.BloomPositives, st.BloomQueries)
	}
}

func TestNoBloomAblationChargesSSBLatency(t *testing.T) {
	with := DefaultSPConfig()
	without := DefaultSPConfig()
	without.UseBloom = false

	mk := func(spc SPConfig) uint64 {
		c, _ := newSystem(spc)
		tb := newB()
		tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
		tb.barrier(0x1000)
		tb.bld.Store(0x3000, 8, isa.NoReg, isa.NoReg)
		// Dependent chain of unrelated loads (cache-resident after warmup
		// store? they're cold, but equal for both configs).
		dep := isa.NoReg
		for i := 0; i < 12; i++ {
			dep = tb.bld.Load(uint64(0x200000+i*0x40), 8, dep)
		}
		return c.Run(tb.buf).Cycles
	}
	if cw, cwo := mk(with), mk(without); cwo <= cw {
		t.Errorf("no-bloom (%d cycles) not slower than bloom (%d cycles)", cwo, cw)
	}
}

func TestCoherenceProbeRollsBack(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000)
	tb.bld.Store(0x3000, 8, isa.NoReg, isa.NoReg)
	for i := 0; i < 600; i++ {
		tb.bld.ALU(0)
	}

	// Drive the pipeline manually far enough to be speculating, then
	// probe a conflicting address.
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
		if !probed && c.speculating() && c.blt.Conflicts(0x3000) {
			if !c.CoherenceProbe(0x3000) {
				t.Fatal("probe with BLT conflict did not roll back")
			}
			probed = true
		}
	}
	if !probed {
		t.Fatal("never reached a speculative state with 0x3000 in the BLT")
	}
	st := c.Stats()
	if st.Rollbacks != 1 {
		t.Errorf("Rollbacks = %d, want 1", st.Rollbacks)
	}
	if c.speculating() || c.ssb.Len() != 0 {
		t.Error("speculative state survived rollback")
	}
}

func TestProbeWithoutConflictIsNoop(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	if c.CoherenceProbe(0x9999) {
		t.Error("probe on idle core rolled back")
	}
}

func TestMaxConcurrentPcommitsLogP(t *testing.T) {
	// Log+P style trace: clwb+pcommit with no fences — pcommits overlap.
	c, _ := newSystem(SPConfig{})
	tb := newB()
	for i := 0; i < 6; i++ {
		addr := uint64(0x1000 + i*0x40)
		tb.bld.Store(addr, 8, isa.NoReg, isa.NoReg)
		tb.bld.Clwb(addr)
		tb.bld.Pcommit()
	}
	st := c.Run(tb.buf)
	if st.MaxConcurrentPcommits < 2 {
		t.Errorf("MaxConcurrentPcommits = %d, want >= 2 without fences", st.MaxConcurrentPcommits)
	}
	if st.StoresWhilePcommitOutstanding == 0 {
		t.Error("no stores counted while pcommits outstanding")
	}
}

func TestFetchQueueStallsUnderBarrier(t *testing.T) {
	c, _ := newSystem(SPConfig{})
	tb := newB()
	tb.bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	tb.barrier(0x1000)
	// Plenty of post-barrier work to fill the front end during the stall.
	for i := 0; i < 400; i++ {
		tb.bld.ALU(0)
	}
	st := c.Run(tb.buf)
	if st.FetchQStallCycles == 0 {
		t.Error("no fetch-queue stalls despite a blocking barrier")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{BloomQueries: 10, BloomFalsePositives: 2, Pcommits: 4, StoresWhilePcommitOutstanding: 20}
	if got := s.BloomFalsePositiveRate(); got != 0.2 {
		t.Errorf("fp rate = %v", got)
	}
	if got := s.AvgStoresPerPcommit(); got != 5 {
		t.Errorf("stores/pcommit = %v", got)
	}
	var zero Stats
	if zero.BloomFalsePositiveRate() != 0 || zero.AvgStoresPerPcommit() != 0 {
		t.Error("zero stats not handled")
	}
}

func TestEmptyTrace(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	st := c.Run(&trace.Buffer{})
	if st.Committed != 0 {
		t.Errorf("committed %d on empty trace", st.Committed)
	}
}

func TestRunAllCommitsEverything(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	for i := 0; i < 3; i++ {
		r := tb.bld.Load(uint64(0x1000+i*0x40), 8, isa.NoReg)
		tb.bld.Store(uint64(0x2000+i*0x40), 8, r, isa.NoReg)
		tb.barrier(uint64(0x2000 + i*0x40))
	}
	st := c.Run(trace.SliceSource(tb.buf.Instrs()))
	if st.Committed != uint64(tb.buf.Len()) {
		t.Errorf("committed %d of %d", st.Committed, tb.buf.Len())
	}
}
