// Package cpu is the trace-driven out-of-order core timing model, the
// stand-in for the paper's MarssX86 simulator (Table 2): a 4-wide
// issue/retire core with a 128-entry ROB, 48-entry fetch queue, issue
// queue and LSQ, fences with PMEM ordering semantics, and optionally the
// paper's Speculative Persistence (SP) architecture — checkpoints, a
// speculative store buffer with a Bloom filter, delayed PMEM instructions,
// and multiple speculative epochs committing in order (§4).
package cpu

import (
	"math"
	"math/bits"

	"specpersist/internal/cache"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/memctl"
	"specpersist/internal/obs"
	"specpersist/internal/sp"
	"specpersist/internal/trace"
)

// SPConfig configures Speculative Persistence.
type SPConfig struct {
	Enabled     bool
	SSBEntries  int // speculative store buffer capacity (Table 3 sizes)
	Checkpoints int // checkpoint buffer entries (4 in the paper)
	BloomBytes  int // Bloom filter size (512 bytes in the paper)

	// UseBloom gates loads through the Bloom filter before paying the SSB
	// CAM latency. Disabling it (ablation) charges every speculative load
	// the SSB lookup.
	UseBloom bool
	// CollapseBarrierPair devotes a single checkpoint to an
	// sfence–pcommit–sfence sequence (§4.2.2). Disabling it (ablation)
	// burns one checkpoint per fence.
	CollapseBarrierPair bool
	// DelayPMEMOps buffers PMEM instructions encountered inside a
	// speculative epoch and replays them at commit (§4.1). Disabling it
	// (ablation) stalls retirement at the first in-shadow PMEM
	// instruction until speculation drains, as most prior speculation
	// schemes would.
	DelayPMEMOps bool
}

// DefaultSPConfig returns the paper's SP design point (SP256).
func DefaultSPConfig() SPConfig {
	return SPConfig{
		Enabled:             true,
		SSBEntries:          256,
		Checkpoints:         4,
		BloomBytes:          512,
		UseBloom:            true,
		CollapseBarrierPair: true,
		DelayPMEMOps:        true,
	}
}

// Config sizes the core (Table 2 defaults via DefaultConfig).
type Config struct {
	FetchWidth  int
	IssueWidth  int
	RetireWidth int
	FetchQ      int
	IssueQ      int
	LSQ         int
	ROB         int
	StoreBuf    int // post-retirement store buffer entries

	// IssueWindow bounds how many un-issued ROB entries the scheduler
	// examines per cycle.
	IssueWindow int

	// RollbackPenalty is the pipeline refill cost charged on a
	// speculation abort.
	RollbackPenalty uint64

	SP SPConfig
}

// DefaultConfig returns the paper's Table 2 core without SP.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      4,
		IssueWidth:      4,
		RetireWidth:     4,
		FetchQ:          48,
		IssueQ:          48,
		LSQ:             48,
		ROB:             128,
		StoreBuf:        48,
		IssueWindow:     32,
		RollbackPenalty: 24,
	}
}

// Stats aggregates the counters the paper's figures are built from.
type Stats struct {
	Cycles    uint64
	Committed uint64 // retired instructions (Figure 9)

	// FetchQStallCycles counts cycles in which the fetch stage could not
	// insert any instruction because the fetch queue was full (Figure 10).
	FetchQStallCycles uint64

	Loads, Stores, ALUs           uint64
	Clwbs, Clflushes              uint64
	Pcommits, Sfences             uint64
	MaxConcurrentPcommits         int    // Figure 11
	StoresWhilePcommitOutstanding uint64 // Figure 12 numerator (incl. flushes)

	// Speculative persistence.
	SpecEntries         uint64 // times the core entered speculation
	SpecEpochs          uint64 // total epochs (incl. children)
	CheckpointStalls    uint64 // retirement stalls for a free checkpoint
	SSBFullStalls       uint64 // retirement stalls for a free SSB slot
	SSBMaxUsed          int
	CheckpointsMaxUsed  int
	SSBForwards         uint64 // loads forwarded from the SSB
	BloomQueries        uint64
	BloomPositives      uint64
	BloomFalsePositives uint64 // Bloom hit without an SSB match (Figure 14)
	DelayedPMEMOps      uint64 // PMEM instructions deferred to epoch commit
	Rollbacks           uint64
	RollbackCycles      uint64 // pipeline-refill penalty cycles charged by rollbacks

	// Retirement-stall attribution: cycles in which retirement was cut
	// short by a complete-but-blocked ROB head, by cause (the cycle may
	// still have retired older instructions before blocking).
	// Together these decompose the Figure 10 story: what the fences
	// actually cost, and what residual stalls SP leaves.
	StallFenceCycles      uint64 // sfence waiting on stores/flushes/pcommits
	StallCheckpointCycles uint64 // speculation wanted a free checkpoint
	StallSSBFullCycles    uint64 // speculative store buffer out of entries
	StallStoreBufCycles   uint64 // post-retirement store buffer full
	StallFlushOrderCycles uint64 // clwb waiting for an older same-line store
	StallNoDelayCycles    uint64 // PMEM op in shadow with DelayPMEMOps off
	StallHoldCycles       uint64 // post-rollback ordering hold

	Cache cache.Stats
	Mem   memctl.Stats
}

// BloomFalsePositiveRate returns false positives per Bloom query.
func (s Stats) BloomFalsePositiveRate() float64 {
	if s.BloomQueries == 0 {
		return 0
	}
	return float64(s.BloomFalsePositives) / float64(s.BloomQueries)
}

// AvgStoresPerPcommit returns Figure 12's metric: speculative-window
// stores (including flushes) executed while a pcommit was outstanding,
// divided by the number of pcommits.
func (s Stats) AvgStoresPerPcommit() float64 {
	if s.Pcommits == 0 {
		return 0
	}
	return float64(s.StoresWhilePcommitOutstanding) / float64(s.Pcommits)
}

const (
	notIssued   = math.MaxUint64 // doneCycle sentinel: not yet issued
	regUnknown  = math.MaxUint64 // pendingRegs sentinel: producer not executed
	tailEpochID = -1             // SSB entries buffered after all epochs committed
)

// robEntry is one in-flight instruction. Beyond the architectural fields
// (in, seq, done) it carries the scheduler index that replaces the per-cycle
// map probing of the reference scheduler: a cached readiness time resolved
// by producers at execute, intrusive waiter-chain and unissued-list links,
// and the armed flag that admits the entry into the issue scan.
type robEntry struct {
	in       isa.Instr
	seq      uint64 // dispatch order, for memory-dependence checks
	done     uint64 // completion cycle; notIssued until executed
	rdy      uint64 // max completion time of resolved producers
	blockSeq uint64 // loads: youngest older same-line in-ROB store at dispatch
	next     int32  // unissued-list links (ROB slot indices; -1 = none)
	prev     int32
	waitNext [2]int32 // waiter-chain links, one per source operand
	waiting  uint8    // source operands whose producer has not executed
	armed    bool     // reg-ready at the current cycle (counted in readyCount)
	link     bool     // a chain link of its stream predecessor (see chainLink)
}

type sbEntry struct {
	addr uint64
	size uint8
}

// epoch is one speculative epoch (§4.2.1).
type epoch struct {
	id int
	// needsPcommit marks an sfence–pcommit–sfence boundary: the commit
	// engine must issue a pcommit (and await it) after the previous epoch
	// fully commits and before this epoch's entries drain.
	needsPcommit bool
	// waitUntil is the cycle the epoch's boundary is satisfied. For the
	// first epoch it is the ack time of the pcommit the sfence was
	// blocked on; for children it is set when the boundary pcommit is
	// issued by the commit engine.
	waitUntil uint64
	// barrierIssued marks that the boundary pcommit has been issued.
	barrierIssued bool
	// remaining counts this epoch's entries still in the SSB.
	remaining int
	// draining marks that the commit engine has started popping this
	// epoch's SSB entries. A rollback is no longer safe: the drained
	// entries already reached the memory system, and re-executing the
	// epoch would duplicate them. External probes are NACKed instead
	// (directory retry) until the epoch finishes committing.
	draining bool
	// visibleMax tracks the completion time of drained entries.
	visibleMax uint64
	// checkpoints consumed by this epoch (1, or 2 with the collapse
	// optimization disabled).
	checkpoints int
	// openedAt is the cycle the epoch opened (timeline recording).
	openedAt uint64
	// fetchPos is the trace position of the instruction following the
	// checkpointed fence (for rollback once the boundary pcommit has been
	// issued — the barrier's effect is already in the commit stream).
	fetchPos uint64
	// barrierPos is the trace position of the boundary's first sfence.
	// A rollback before the commit engine issues the boundary pcommit
	// must resume here, so the barrier replays and its pcommit reaches
	// the memory system exactly once.
	barrierPos uint64
}

// CPU is the core model. Create with New, run a trace with Run.
type CPU struct {
	cfg Config
	h   *cache.Hierarchy
	mc  memctl.Memory

	now uint64

	src      trace.Source
	bsrc     trace.BlockSource // src's bulk-read path, when it has one
	blk      []isa.Instr       // current block borrowed from bsrc
	blkPos   int               // next record of blk
	blkSub   int               // links of blk[blkPos] already fetched (chain records)
	srcDone  bool
	fetchPos uint64 // instructions fetched so far

	// Fetch queue, ROB and post-retirement store buffer are fixed-size
	// rings dimensioned by the Config, so the steady state allocates
	// nothing and the ROB never shifts.
	fq     []isa.Instr
	fqLink []bool // parallels fq: the entry's chain-link flag
	fqHead int
	fqLen  int

	rob     []robEntry
	robHead int
	robLen  int

	unissued int // ROB entries not yet executed
	lsqCount int // loads+stores in ROB

	// Scheduler index. sbrd maps in-flight destination registers to their
	// producers (replacing the pendingReg map); the unissued doubly-linked
	// list threads the not-yet-executed ROB entries in dispatch order;
	// readyCount counts unissued entries whose operands are ready at the
	// current cycle (armed), letting issue() skip entirely-idle scans; and
	// wakes schedules the cycle each resolved entry becomes ready.
	sbrd       *scoreboard
	unissHead  int32
	unissTail  int32
	readyCount int
	wakes      wakeHeap

	sbuf            []sbEntry
	sbufHead        int
	sbufLen         int
	sbDrainFree     uint64 // next cycle the L1 write port is free
	storeVisibleMax uint64 // all retired stores visible by this cycle
	// lineVisT tracks, per cache line, when the latest store to it becomes
	// visible: clwb is ordered after older stores to the same line.
	lineVisT *u64Table
	// lineSeq caches, per cache line, the dispatch sequence of the newest
	// store to it. Loads snapshot their blocking store at dispatch; entries
	// for retired stores go stale harmlessly (they compare below the oldest
	// in-ROB store) and are swept in bulk when the table grows.
	lineSeq *u64Table
	// storeSeqQ rings the dispatch sequences of in-ROB stores in FIFO
	// order; its head is the oldest unretired store (replacing the
	// storesByLine map — stores dispatch and retire strictly in order).
	storeSeqQ []uint64
	ssqHead   int
	ssqLen    int
	seq       uint64

	// Chain fast-forward state (chain.go). plainUnissued counts the
	// unissued ROB entries that are not chain links, so the batch screen is
	// O(1); linkDone records, by stream position modulo its length (a
	// power of two above the ROB size), the completion cycle of each link a
	// batch issues; fetchDst is the destination of the last fetched
	// instruction, the predecessor the next fetch is linked to.
	// blk[blkPos:linkEnd] is the scanned run of plain links ahead of fetch
	// (stale once blkPos reaches linkEnd; zeroed whenever fetch takes a new
	// block, the only way blk becomes non-empty).
	plainUnissued int
	linkDone      []uint64
	fetchDst      isa.Reg
	linkEnd       int

	// ref, when non-nil, switches Step to the straight-line reference
	// scheduler (maps plus linear scans) the indexed fast path is verified
	// against. See SetReferenceStepping.
	ref *refSched

	// PMEM completion tracking.
	flushAckMax   uint64   // all clwb/clflushopt acks received by this cycle
	pcommitDones  []uint64 // outstanding pcommit completion times
	pcommitMax    uint64   // all pcommits complete by this cycle
	retireHoldTil uint64   // post-rollback ordering hold

	// Speculative persistence state.
	spEnabled bool
	ssb       *sp.SSB
	bloom     *sp.Bloom
	ckpts     *sp.Checkpoints
	blt       *sp.BLT
	epochs    []*epoch
	nextEpoch int
	// boundary recognition state while speculating: 0 none, 1 saw sfence,
	// 2 saw sfence+pcommit.
	boundaryState int
	// boundaryPos is the trace position of the sfence that opened the
	// current boundary (boundaryState != 0); the epoch it finalizes into
	// records it as its barrierPos.
	boundaryPos uint64
	commitFree  uint64 // SSB drain port availability

	// lastStall records why the most recent retirement attempt blocked.
	lastStall *uint64

	// cycleHook, when non-nil, runs once per simulation step (differential
	// harnesses use it to fire coherence probes at controlled points).
	cycleHook func(*CPU)
	// commitHook, when non-nil, observes every commit event as it happens
	// (the multi-core harness turns committed stores into coherence probes
	// against the other cores).
	commitHook func(CommitEvent)
	// commitLog, when enabled, records every architectural/durable effect
	// in the order it reaches the memory system.
	logCommits bool
	commitLog  []CommitEvent

	// idleSteps counts consecutive no-progress steps (deadlock detector);
	// it lives on the CPU so step-wise drivers share the accounting.
	idleSteps int

	// Observability. tl is nil unless timeline recording was requested;
	// the remaining fields track open spans (notIssued = no span open)
	// and the SSB occupancy high-water already reported.
	tl             *obs.Timeline
	fenceBlockedAt uint64
	specSince      uint64
	ssbHigh        int

	stats Stats
}

// New builds a core over the given cache hierarchy and memory: it
// allocates the core's storage and resets it.
func New(cfg Config, h *cache.Hierarchy, mc memctl.Memory) *CPU {
	c := &CPU{cfg: cfg, h: h, mc: mc,
		fq:        make([]isa.Instr, cfg.FetchQ),
		fqLink:    make([]bool, cfg.FetchQ),
		linkDone:  make([]uint64, 1<<bits.Len(uint(cfg.ROB))),
		rob:       make([]robEntry, cfg.ROB),
		sbuf:      make([]sbEntry, cfg.StoreBuf),
		storeSeqQ: make([]uint64, cfg.ROB),
		sbrd:      newScoreboard(cfg.ROB),
		lineVisT:  newU64Table(64),
		lineSeq:   newU64Table(64),
		wakes:     make(wakeHeap, 0, cfg.ROB),
	}
	if cfg.SP.Enabled {
		c.ssb = sp.NewSSB(cfg.SP.SSBEntries)
		c.ckpts = sp.NewCheckpoints(cfg.SP.Checkpoints)
		c.blt = sp.NewBLT()
		if cfg.SP.UseBloom {
			c.bloom = sp.NewBloom(cfg.SP.BloomBytes)
		}
	}
	c.Reset()
	return c
}

// Reset returns the core to the state New left it in, keeping its storage
// (rings, tables and SP structures, all cleared) and the hierarchy and
// memory it was built over, which their owner resets. Like New, it leaves
// no hooks, no timeline, no reference stepping and no commit log; the log
// is handed off, not truncated, so a caller may keep the last run's.
func (c *CPU) Reset() {
	*c = CPU{cfg: c.cfg, h: c.h, mc: c.mc,
		fq: c.fq, fqLink: c.fqLink, linkDone: c.linkDone, rob: c.rob,
		sbuf: c.sbuf, storeSeqQ: c.storeSeqQ,
		sbrd: c.sbrd, lineVisT: c.lineVisT, lineSeq: c.lineSeq,
		wakes: c.wakes[:0], pcommitDones: c.pcommitDones[:0], epochs: c.epochs[:0],
		spEnabled: c.cfg.SP.Enabled, ssb: c.ssb, bloom: c.bloom, ckpts: c.ckpts, blt: c.blt,
		unissHead: -1, unissTail: -1, fenceBlockedAt: notIssued, specSince: notIssued,
	}
	clear(c.fq)
	clear(c.fqLink)
	clear(c.linkDone)
	clear(c.rob)
	clear(c.sbuf)
	clear(c.storeSeqQ)
	c.sbrd.clear()
	c.lineVisT.clear()
	c.lineSeq.clear()
	if c.spEnabled {
		c.ssb.Reset()
		c.ckpts.Reset()
		c.blt.Reset()
		if c.bloom != nil {
			c.bloom.Reset()
		}
	}
}

// Now returns the current cycle.
func (c *CPU) Now() uint64 { return c.now }

// AdvanceTo moves the core's clock forward to the given cycle; cycles in
// the past are a no-op. It is only valid while the core is quiescent (no
// in-flight pipeline or persistence state): the service harness uses it to
// model idle time between request arrivals, and advancing a busy core would
// let queued work complete in zero time.
func (c *CPU) AdvanceTo(cycle uint64) {
	if c.fetchQLen() > 0 || c.robCount() > 0 || c.storeBufLen() > 0 ||
		(c.spEnabled && (len(c.epochs) > 0 || c.ssb.Len() > 0)) {
		panic("cpu: AdvanceTo while the pipeline is busy")
	}
	if cycle > c.now {
		c.now = cycle
	}
}

// fetchQLen, robCount and storeBufLen report pipeline occupancy in whichever
// representation the active scheduler uses.
func (c *CPU) fetchQLen() int {
	if c.ref != nil {
		return len(c.ref.fetchQ)
	}
	return c.fqLen
}

func (c *CPU) robCount() int {
	if c.ref != nil {
		return len(c.ref.rob)
	}
	return c.robLen
}

func (c *CPU) storeBufLen() int {
	if c.ref != nil {
		return len(c.ref.storeBuf)
	}
	return c.sbufLen
}

func (c *CPU) pushStoreBuf(e sbEntry) {
	if c.ref != nil {
		c.ref.storeBuf = append(c.ref.storeBuf, e)
		return
	}
	i := c.sbufHead + c.sbufLen
	if i >= len(c.sbuf) {
		i -= len(c.sbuf)
	}
	c.sbuf[i] = e
	c.sbufLen++
}

func (c *CPU) popStoreBuf() sbEntry {
	if c.ref != nil {
		e := c.ref.storeBuf[0]
		c.ref.storeBuf = c.ref.storeBuf[1:]
		return e
	}
	e := c.sbuf[c.sbufHead]
	c.sbufHead++
	if c.sbufHead == len(c.sbuf) {
		c.sbufHead = 0
	}
	c.sbufLen--
	return e
}

// Config returns the core's configuration.
func (c *CPU) Config() Config { return c.cfg }

// SetTimeline attaches an event recorder; nil (the default) disables
// recording. Recording never changes simulated timing.
func (c *CPU) SetTimeline(tl *obs.Timeline) { c.tl = tl }

// Register publishes the core's counters into the registry under the
// "cpu." key space. The SP hardware counters appear only when the core has
// SP hardware, so a snapshot's key set identifies the machine shape.
func (c *CPU) Register(r *obs.Registry) {
	r.RegisterFunc(obs.KeyCycles, func() uint64 { return c.now })
	r.RegisterFunc(obs.KeyCommitted, func() uint64 { return c.stats.Committed })
	r.RegisterFunc(obs.KeyStallFetchQ, func() uint64 { return c.stats.FetchQStallCycles })
	r.RegisterFunc(obs.KeyStallFence, func() uint64 { return c.stats.StallFenceCycles })
	r.RegisterFunc(obs.KeyStallCheckpoint, func() uint64 { return c.stats.StallCheckpointCycles })
	r.RegisterFunc(obs.KeyStallSSBFull, func() uint64 { return c.stats.StallSSBFullCycles })
	r.RegisterFunc(obs.KeyStallStoreBuf, func() uint64 { return c.stats.StallStoreBufCycles })
	r.RegisterFunc(obs.KeyStallFlushOrder, func() uint64 { return c.stats.StallFlushOrderCycles })
	r.RegisterFunc(obs.KeyStallNoDelay, func() uint64 { return c.stats.StallNoDelayCycles })
	r.RegisterFunc(obs.KeyStallHold, func() uint64 { return c.stats.StallHoldCycles })
	r.RegisterFunc("cpu.op.loads", func() uint64 { return c.stats.Loads })
	r.RegisterFunc("cpu.op.stores", func() uint64 { return c.stats.Stores })
	r.RegisterFunc("cpu.op.alus", func() uint64 { return c.stats.ALUs })
	r.RegisterFunc("cpu.op.clwbs", func() uint64 { return c.stats.Clwbs })
	r.RegisterFunc("cpu.op.clflushes", func() uint64 { return c.stats.Clflushes })
	r.RegisterFunc("cpu.op.pcommits", func() uint64 { return c.stats.Pcommits })
	r.RegisterFunc("cpu.op.sfences", func() uint64 { return c.stats.Sfences })
	r.RegisterFunc("cpu.pcommit.max_concurrent", func() uint64 { return uint64(c.stats.MaxConcurrentPcommits) })
	r.RegisterFunc("cpu.pcommit.stores_while_outstanding", func() uint64 { return c.stats.StoresWhilePcommitOutstanding })
	if !c.spEnabled {
		return
	}
	r.RegisterFunc("cpu.sp.entries", func() uint64 { return c.stats.SpecEntries })
	r.RegisterFunc("cpu.sp.epochs", func() uint64 { return c.stats.SpecEpochs })
	r.RegisterFunc("cpu.sp.rollbacks", func() uint64 { return c.stats.Rollbacks })
	r.RegisterFunc("cpu.sp.rollback_cycles", func() uint64 { return c.stats.RollbackCycles })
	r.RegisterFunc("cpu.sp.delayed_pmem_ops", func() uint64 { return c.stats.DelayedPMEMOps })
	r.RegisterFunc("cpu.sp.ssb.forwards", func() uint64 { return c.stats.SSBForwards })
	r.RegisterFunc("cpu.sp.ssb.full_stalls", func() uint64 { return c.stats.SSBFullStalls })
	r.RegisterFunc("cpu.sp.ssb.max_used", func() uint64 { return uint64(c.ssb.MaxUsed()) })
	r.RegisterFunc("cpu.sp.ckpt.max_used", func() uint64 { return uint64(c.ckpts.MaxUsed()) })
	r.RegisterFunc("cpu.sp.ckpt.stalls", func() uint64 { return c.ckpts.Stalls() })
	r.RegisterFunc("cpu.sp.bloom.queries", func() uint64 { return c.stats.BloomQueries })
	r.RegisterFunc("cpu.sp.bloom.positives", func() uint64 { return c.stats.BloomPositives })
	r.RegisterFunc("cpu.sp.bloom.false_positives", func() uint64 { return c.stats.BloomFalsePositives })
}

// Stats returns the counters accumulated so far, including cache and
// memory-controller statistics.
func (c *CPU) Stats() Stats {
	st := c.stats
	st.Cycles = c.now
	st.Cache = c.h.Stats()
	st.Mem = c.mc.Stats()
	if c.ssb != nil {
		st.SSBMaxUsed = c.ssb.MaxUsed()
	}
	if c.ckpts != nil {
		st.CheckpointsMaxUsed = c.ckpts.MaxUsed()
		st.CheckpointStalls = c.ckpts.Stalls()
	}
	return st
}

// outstandingPcommits prunes and returns the number of pcommits still in
// flight at the current cycle.
func (c *CPU) outstandingPcommits() int {
	keep := c.pcommitDones[:0]
	for _, d := range c.pcommitDones {
		if d > c.now {
			keep = append(keep, d)
		}
	}
	c.pcommitDones = keep
	return len(keep)
}

// noteLineVisible records when a drained store's line content is in place.
func (c *CPU) noteLineVisible(addr uint64, done uint64) {
	line := mem.LineAddr(addr)
	if c.ref != nil {
		if done > c.ref.lineVis[line] {
			c.ref.lineVis[line] = done
		}
		if len(c.ref.lineVis) > 4096 {
			for l, v := range c.ref.lineVis {
				if v <= c.now {
					delete(c.ref.lineVis, l)
				}
			}
		}
		return
	}
	if v, _ := c.lineVisT.get(line); done > v {
		c.lineVisT.put(line, done)
	}
	if c.lineVisT.Len() > 4096 {
		now := c.now
		c.lineVisT.filter(func(_, v uint64) bool { return v > now })
	}
}

// lineVisibleAt returns the earliest cycle >= now at which all drained
// stores to addr's line are visible.
func (c *CPU) lineVisibleAt(addr uint64) uint64 {
	line := mem.LineAddr(addr)
	if c.ref != nil {
		v, ok := c.ref.lineVis[line]
		if !ok || v <= c.now {
			if ok {
				delete(c.ref.lineVis, line)
			}
			return c.now
		}
		return v
	}
	v, ok := c.lineVisT.get(line)
	if !ok || v <= c.now {
		if ok {
			c.lineVisT.del(line)
		}
		return c.now
	}
	return v
}

// memReadyFast reports whether a load may access memory: the same-line
// store it snapshotted at dispatch (if any) must have retired. Stores
// retire strictly in dispatch order, so the blocking store has retired
// exactly when the oldest in-ROB store is younger than it.
func (c *CPU) memReadyFast(e *robEntry) bool {
	return e.blockSeq == 0 || c.ssqLen == 0 || c.storeSeqQ[c.ssqHead] > e.blockSeq
}

// sweepLineSeq bulk-drops stale newest-store-per-line cache entries once
// the table outgrows its working set. Entries older than the oldest in-ROB
// store can never block a load again.
func (c *CPU) sweepLineSeq() {
	if c.lineSeq.Len() <= 4096 {
		return
	}
	if c.ssqLen == 0 {
		c.lineSeq.clear()
		return
	}
	min := c.storeSeqQ[c.ssqHead]
	c.lineSeq.filter(func(_, s uint64) bool { return s >= min })
}

// storeBufHasLine reports whether an undrained store targets addr's line.
func (c *CPU) storeBufHasLine(addr uint64) bool {
	line := mem.LineAddr(addr)
	if c.ref != nil {
		for _, e := range c.ref.storeBuf {
			if mem.LineAddr(e.addr) == line {
				return true
			}
		}
		return false
	}
	for i := 0; i < c.sbufLen; i++ {
		j := c.sbufHead + i
		if j >= len(c.sbuf) {
			j -= len(c.sbuf)
		}
		if mem.LineAddr(c.sbuf[j].addr) == line {
			return true
		}
	}
	return false
}

// arm marks an operand-resolved entry issuable now, or schedules the wakeup
// for the cycle its last operand completes.
func (c *CPU) arm(slot int32, e *robEntry) {
	if e.rdy <= c.now {
		e.armed = true
		c.readyCount++
	} else {
		c.wakes.push(wake{t: e.rdy, slot: slot, seq: e.seq})
	}
}

// drainWakes arms every entry whose readiness time has arrived. It runs at
// the top of each Step, after now advanced.
func (c *CPU) drainWakes() {
	for len(c.wakes) > 0 && c.wakes[0].t <= c.now {
		w := c.wakes.pop()
		e := &c.rob[w.slot]
		if e.seq != w.seq || e.done != notIssued || e.armed || e.waiting != 0 {
			continue // slot reused or already handled
		}
		e.armed = true
		c.readyCount++
	}
}

// releaseChain resolves every waiter chained on a scoreboard slot with the
// producer's completion time, arming those whose last operand this was.
func (c *CPU) releaseChain(sl *sbdSlot, done uint64) {
	node := sl.chain
	sl.chain = -1
	for node >= 0 {
		slot := node >> 1
		si := node & 1
		w := &c.rob[slot]
		node = w.waitNext[si]
		w.waitNext[si] = -1
		if done > w.rdy {
			w.rdy = done
		}
		if w.waiting--; w.waiting == 0 {
			c.arm(slot, w)
		}
	}
}

// resolveReg publishes a producer's completion time and wakes its waiters.
func (c *CPU) resolveReg(reg uint32, done uint64) {
	sl := c.sbrd.lookup(reg)
	if sl == nil {
		return // producer record displaced (register-rewriting trace)
	}
	sl.done = done
	if sl.chain >= 0 {
		c.releaseChain(sl, done)
	}
}

// retireDst retires a producer: its register leaves the scoreboard, so
// later consumers read it as architecturally ready.
func (c *CPU) retireDst(reg uint32) {
	sl := c.sbrd.lookup(reg)
	if sl == nil {
		return
	}
	if sl.chain >= 0 {
		// Waiters orphaned by a register rewrite: an absent key reads as
		// ready, exactly as the reference scheduler's map would.
		c.releaseChain(sl, 0)
	}
	c.sbrd.del(reg)
}

// unlinkUnissued removes an entry from the unissued list when it issues.
func (c *CPU) unlinkUnissued(slot int32, e *robEntry) {
	if e.prev >= 0 {
		c.rob[e.prev].next = e.next
	} else {
		c.unissHead = e.next
	}
	if e.next >= 0 {
		c.rob[e.next].prev = e.prev
	} else {
		c.unissTail = e.prev
	}
	e.next, e.prev = -1, -1
}

// CommitEvent is one committed effect on the memory system: a store or
// flush reaching the cache hierarchy, or a pcommit reaching the memory
// controller. The SP differential check compares these streams between a
// speculative and a non-speculative run of the same trace.
type CommitEvent struct {
	Op   isa.Op
	Addr uint64 // zero for pcommit
}

// OnCycle installs fn to run once per simulation step of Run; nil removes
// it. The hook may call Probe.
func (c *CPU) OnCycle(fn func(*CPU)) { c.cycleHook = fn }

// OnCommit installs fn to observe every commit event as it reaches the
// memory system, independent of commit-log recording; nil removes it. The
// hook must not re-enter the CPU.
func (c *CPU) OnCommit(fn func(CommitEvent)) { c.commitHook = fn }

// EnableCommitLog starts recording CommitEvents. Recording never changes
// simulated timing.
func (c *CPU) EnableCommitLog() { c.logCommits = true }

// CommitLog returns the events recorded since EnableCommitLog.
func (c *CPU) CommitLog() []CommitEvent { return c.commitLog }

// logCommit appends one event when recording is on and feeds the commit
// hook when installed.
func (c *CPU) logCommit(op isa.Op, addr uint64) {
	if c.logCommits {
		c.commitLog = append(c.commitLog, CommitEvent{Op: op, Addr: addr})
	}
	if c.commitHook != nil {
		c.commitHook(CommitEvent{Op: op, Addr: addr})
	}
}

// speculating reports whether any speculative epoch is live.
func (c *CPU) speculating() bool { return len(c.epochs) > 0 }

// Speculating reports whether any speculative epoch is live. External
// coherence agents use it to decide whether a probe can possibly conflict.
func (c *CPU) Speculating() bool { return c.speculating() }

// buffering reports whether retired stores must route through the SSB:
// during speculation, and afterwards while the SSB still drains (store
// ordering, §5.1).
func (c *CPU) buffering() bool {
	return c.spEnabled && (len(c.epochs) > 0 || c.ssb.Len() > 0)
}
