package cpu

import (
	"math"

	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/obs"
	"specpersist/internal/trace"
)

// Run simulates the instruction stream to completion and returns the final
// statistics. Nothing outside the core observes it between cycles, so it
// steps with no horizon.
func (c *CPU) Run(src trace.Source) Stats {
	c.Start(src)
	for c.StepTo(math.MaxUint64) {
	}
	return c.Stats()
}

// Start binds the trace source without running it, for callers that drive
// the core step by step (the multi-core harness interleaves several cores
// by advancing whichever has the earliest Now). When the source implements
// trace.BlockSource the core pulls instructions in bulk, eliminating the
// per-instruction interface call; the reference scheduler always uses the
// per-instruction path.
func (c *CPU) Start(src trace.Source) {
	c.src = src
	c.bsrc = nil
	if c.ref == nil {
		c.bsrc, _ = src.(trace.BlockSource)
	}
	c.blk = nil
	c.blkPos, c.blkSub = 0, 0
	c.fetchDst = isa.NoReg
	c.srcDone = false
	c.idleSteps = 0
	// Fetch position is relative to the bound source. A core restarted on
	// a fresh (or Reset) source must not carry the previous stream's
	// cumulative count: rollback uses these positions to Seek.
	c.fetchPos = 0
}

// Step advances the simulation by one unit of work: either one busy cycle,
// or a jump to the next future event when no stage can make progress. It
// returns false once the core is finished.
func (c *CPU) Step() bool {
	if c.ref != nil {
		return c.refStep()
	}
	if c.finished() {
		return false
	}
	c.drainWakes()
	if c.cycleHook != nil {
		c.cycleHook(c)
	}
	progress := false
	progress = c.retire() || progress
	progress = c.commitEngineStep() || progress
	progress = c.drainStoreBuffer() || progress
	progress = c.issue() || progress
	progress = c.dispatch() || progress
	progress = c.fetch() || progress
	if progress {
		c.now++
		c.idleSteps = 0
		return true
	}
	c.now = c.nextEvent()
	if c.idleSteps++; c.idleSteps > 1<<24 {
		panic("cpu: pipeline deadlock (no progress for 16M events)")
	}
	return true
}

// finished reports whether all pipeline and persistence state has drained.
func (c *CPU) finished() bool {
	if !c.srcDone || c.fetchQLen() > 0 || c.robCount() > 0 || c.storeBufLen() > 0 {
		return false
	}
	if c.spEnabled && (len(c.epochs) > 0 || c.ssb.Len() > 0) {
		return false
	}
	// Let outstanding persists land so final stats are settled.
	return c.storeVisibleMax <= c.now && c.flushAckMax <= c.now && c.pcommitMax <= c.now
}

// nextEvent returns the earliest future cycle at which progress can resume.
func (c *CPU) nextEvent() uint64 {
	next := uint64(1<<63 - 1)
	consider := func(t uint64) {
		if t > c.now && t < next {
			next = t
		}
	}
	// ROB completions and readiness. Unresolved entries (waiting > 0) have
	// no bounded readiness time, matching the reference scheduler's
	// regUnknown sentinel falling outside the considered range.
	window := c.cfg.IssueWindow
	for i := 0; i < c.robLen; i++ {
		j := c.robHead + i
		if j >= len(c.rob) {
			j -= len(c.rob)
		}
		e := &c.rob[j]
		if e.done != notIssued {
			consider(e.done)
			continue
		}
		if window == 0 {
			continue
		}
		window--
		if e.waiting == 0 {
			consider(e.rdy)
		}
	}
	consider(c.sbDrainFree)
	consider(c.storeVisibleMax)
	consider(c.flushAckMax)
	consider(c.pcommitMax)
	consider(c.retireHoldTil)
	consider(c.commitFree)
	for _, ep := range c.epochs {
		if ep.barrierIssued || !ep.needsPcommit {
			consider(ep.waitUntil)
		}
	}
	if next == uint64(1<<63-1) {
		return c.now + 1
	}
	return next
}

// fetch pulls up to FetchWidth instructions into the fetch queue. A cycle
// in which the full queue prevents any fetch counts as a fetch-queue stall
// (Figure 10).
func (c *CPU) fetch() bool {
	if c.srcDone {
		return false
	}
	if c.fqLen >= c.cfg.FetchQ {
		c.stats.FetchQStallCycles++
		return false
	}
	fetched := false
	for i := 0; i < c.cfg.FetchWidth && c.fqLen < c.cfg.FetchQ; i++ {
		if c.blkPos == len(c.blk) && c.bsrc != nil {
			c.blk, c.blkPos, c.linkEnd = c.bsrc.NextBlock(), 0, 0
			if len(c.blk) == 0 {
				c.srcDone = true
				break
			}
		}
		var in isa.Instr
		if c.blkPos < len(c.blk) {
			if in = c.blk[c.blkPos]; in.Op == isa.Chain {
				in = c.nextLink(in)
			} else {
				c.blkPos++
			}
		} else {
			var ok bool
			in, ok = c.src.Next()
			if !ok {
				c.srcDone = true
				break
			}
		}
		c.fetchPos++
		j := c.fqHead + c.fqLen
		if j >= len(c.fq) {
			j -= len(c.fq)
		}
		c.fq[j] = in
		c.fqLink[j] = chainLink(c.fetchDst, in)
		c.fetchDst = in.Dst
		c.fqLen++
		fetched = true
	}
	return fetched
}

// nextLink returns the next link of rec, the chain record at the block
// position, and moves fetch past it.
func (c *CPU) nextLink(rec isa.Instr) isa.Instr {
	l := rec.Link(c.blkSub)
	if c.blkSub++; c.blkSub == rec.Links() {
		c.blkPos, c.blkSub = c.blkPos+1, 0
	}
	return l
}

// dispatch moves instructions from the fetch queue into the ROB, bounded by
// ROB, issue-queue, and LSQ occupancy. Source dependences resolve here,
// once: an executed producer contributes its completion time to the entry's
// cached readiness, an in-flight one links the entry onto its waiter chain.
func (c *CPU) dispatch() bool {
	moved := false
	for i := 0; i < c.cfg.IssueWidth && c.fqLen > 0; i++ {
		if c.robLen >= c.cfg.ROB || c.unissued >= c.cfg.IssueQ {
			break
		}
		in, link := c.fq[c.fqHead], c.fqLink[c.fqHead]
		if in.Op.IsMemAccess() && c.lsqCount >= c.cfg.LSQ {
			break
		}
		c.fqHead++
		if c.fqHead == len(c.fq) {
			c.fqHead = 0
		}
		c.fqLen--
		if in.Op.IsMemAccess() {
			c.lsqCount++
		}
		c.seq++
		slot := c.robHead + c.robLen
		if slot >= len(c.rob) {
			slot -= len(c.rob)
		}
		c.robLen++
		// Field by field: a composite-literal store copies the whole
		// entry through a temporary.
		e := &c.rob[slot]
		e.in, e.seq, e.done, e.rdy, e.blockSeq = in, c.seq, notIssued, 0, 0
		e.next, e.prev, e.waitNext = -1, -1, [2]int32{-1, -1}
		e.waiting, e.armed, e.link = 0, false, link
		if !link {
			c.plainUnissued++
		}
		// Destination before sources: a self-dependent instruction must
		// wait on itself, as it would under the always-re-read map.
		if in.Dst != isa.NoReg {
			c.sbrd.insertUnknown(uint32(in.Dst))
		}
		c.addDep(int32(slot), e, 0, in.Src1)
		c.addDep(int32(slot), e, 1, in.Src2)
		switch in.Op {
		case isa.Store:
			line := mem.LineAddr(in.Addr)
			c.lineSeq.put(line, c.seq)
			c.sweepLineSeq()
			j := c.ssqHead + c.ssqLen
			if j >= len(c.storeSeqQ) {
				j -= len(c.storeSeqQ)
			}
			c.storeSeqQ[j] = c.seq
			c.ssqLen++
		case isa.Load:
			if s, ok := c.lineSeq.get(mem.LineAddr(in.Addr)); ok && c.ssqLen > 0 && s >= c.storeSeqQ[c.ssqHead] {
				e.blockSeq = s
			}
		}
		if c.unissTail >= 0 {
			c.rob[c.unissTail].next = int32(slot)
			e.prev = c.unissTail
		} else {
			c.unissHead = int32(slot)
		}
		c.unissTail = int32(slot)
		c.unissued++
		if e.waiting == 0 {
			c.arm(int32(slot), e)
		}
		moved = true
	}
	return moved
}

// addDep resolves one source operand at dispatch.
func (c *CPU) addDep(slot int32, e *robEntry, si int, src isa.Reg) {
	if src == isa.NoReg {
		return
	}
	sl := c.sbrd.lookup(uint32(src))
	if sl == nil {
		return // producer already retired: architecturally ready
	}
	if sl.done != regUnknown {
		if sl.done > e.rdy {
			e.rdy = sl.done
		}
		return
	}
	e.waitNext[si] = sl.chain
	sl.chain = slot<<1 | int32(si)
	e.waiting++
}

// issue executes up to IssueWidth ready instructions from the scheduler
// window (oldest first). The scan walks only unissued entries and bails as
// soon as no armed entry remains, but examines candidates in exactly the
// reference order and count.
func (c *CPU) issue() bool {
	if c.readyCount == 0 {
		return false
	}
	issued := 0
	examined := 0
	for n := c.unissHead; n >= 0; {
		if issued >= c.cfg.IssueWidth || examined >= c.cfg.IssueWindow || c.readyCount == 0 {
			break
		}
		e := &c.rob[n]
		next := e.next
		examined++
		if e.armed && (e.in.Op != isa.Load || c.memReadyFast(e)) {
			c.execute(e)
			if !e.link {
				c.plainUnissued--
			}
			c.unlinkUnissued(n, e)
			e.armed = false
			c.readyCount--
			c.unissued--
			issued++
		}
		n = next
	}
	return issued > 0
}

// execute computes an instruction's completion time and publishes its
// result register to waiting consumers.
func (c *CPU) execute(e *robEntry) {
	e.done = c.computeDone(e.in)
	if e.in.Dst != isa.NoReg {
		c.resolveReg(uint32(e.in.Dst), e.done)
	}
}

// computeDone models the execution stage's latency.
func (c *CPU) computeDone(in isa.Instr) uint64 {
	switch in.Op {
	case isa.ALU:
		lat := uint64(in.Lat)
		if lat == 0 {
			lat = 1
		}
		return c.now + lat
	case isa.Load:
		return c.loadDone(in)
	default:
		// Stores complete when address/data are ready (the write happens
		// at retirement); PMEM instructions and fences carry no execution
		// stage either.
		return c.now + 1
	}
}

// loadDone models a load's memory access, including the SSB path while the
// core is buffering speculative state (§5.1): the Bloom filter screens the
// SSB; a positive pays the SSB CAM latency, and a match forwards from the
// buffer.
func (c *CPU) loadDone(in isa.Instr) uint64 {
	start := c.now
	if c.buffering() && c.ssb.Len() > 0 {
		if c.speculating() {
			c.blt.Record(in.Addr)
		}
		checkSSB := true
		if c.bloom != nil {
			c.stats.BloomQueries++
			if c.bloom.MayContain(in.Addr) {
				c.stats.BloomPositives++
			} else {
				checkSSB = false
			}
		}
		if checkSSB {
			start += c.ssb.Latency()
			if c.ssb.MatchLoad(in.Addr, int(in.Size)) {
				c.stats.SSBForwards++
				return start
			}
			if c.bloom != nil {
				c.stats.BloomFalsePositives++
			}
		}
	}
	return c.h.Load(in.Addr, start)
}

// retire commits up to RetireWidth instructions in order.
func (c *CPU) retire() bool {
	retired := 0
	blocked := false
	for retired < c.cfg.RetireWidth && c.robLen > 0 {
		e := &c.rob[c.robHead]
		if e.done == notIssued || e.done > c.now {
			break
		}
		c.lastStall = nil
		if !c.retireOne(e.in) {
			blocked = true
			break // structural or ordering stall at the head
		}
		if e.in.Dst != isa.NoReg {
			c.retireDst(uint32(e.in.Dst))
		}
		if e.in.Op.IsMemAccess() {
			c.lsqCount--
		}
		if e.in.Op == isa.Store {
			if c.ssqLen == 0 || c.storeSeqQ[c.ssqHead] != e.seq {
				panic("cpu: store retirement out of line order")
			}
			c.ssqHead++
			if c.ssqHead == len(c.storeSeqQ) {
				c.ssqHead = 0
			}
			c.ssqLen--
		}
		c.robHead++
		if c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robLen--
		c.stats.Committed++
		retired++
	}
	if blocked && c.lastStall != nil {
		*c.lastStall++
	}
	return retired > 0
}

// retireOne applies one instruction's retirement semantics; it returns
// false if the instruction must stay at the ROB head this cycle.
func (c *CPU) retireOne(in isa.Instr) bool {
	if s := c.stallOf(in); s != nil {
		c.noteStall(s)
		return false
	}
	switch in.Op {
	case isa.ALU:
		c.stats.ALUs++
		return true
	case isa.Load:
		c.stats.Loads++
		return true
	case isa.Store:
		return c.retireStore(in)
	case isa.Clwb, isa.Clflushopt, isa.Clflush:
		return c.retireFlush(in)
	case isa.Pcommit:
		return c.retirePcommit()
	case isa.Sfence, isa.Mfence:
		return c.retireFence()
	default:
		panic("cpu: unknown opcode at retirement")
	}
}

// stallOf returns the retirement-stall counter the ROB head in is charged
// at this cycle when only time, the store buffer or the commit engine holds
// it: the post-rollback hold, a full store buffer, a flush ordered behind a
// buffered store to its line, a non-speculative fence waiting for stores,
// flushes, the SSB or (without SP) pcommits, or a barrier that needs a
// checkpoint while all are taken. It returns nil when retireOne would
// retire in or change any other state, so a stall it names repeats,
// changing nothing else, until one of those inputs moves (the chain
// fast-forward covers such cycles).
func (c *CPU) stallOf(in isa.Instr) *uint64 {
	if c.retireHoldTil > c.now && (in.Op == isa.Store || in.Op.IsPMEM()) {
		return &c.stats.StallHoldCycles
	}
	// Every checkpoint is taken: a barrier boundary cannot finalize and
	// speculation cannot start.
	ckptsFull := c.spEnabled && c.ckpts.Used() >= c.cfg.SP.Checkpoints
	switch in.Op {
	case isa.Store, isa.Clwb, isa.Clflushopt, isa.Clflush:
		if c.buffering() {
			if c.boundaryState != 0 && ckptsFull {
				return &c.stats.StallCheckpointCycles
			}
			break
		}
		if in.Op == isa.Store && c.storeBufLen() >= c.cfg.StoreBuf {
			return &c.stats.StallStoreBufCycles
		}
		// clwb is ordered after older stores to the same line: the
		// writeback must carry their data.
		if in.Op != isa.Store && c.storeBufHasLine(in.Addr) {
			return &c.stats.StallFlushOrderCycles
		}
	case isa.Sfence, isa.Mfence:
		switch {
		case c.speculating():
			if c.boundaryState != 0 && ckptsFull {
				return &c.stats.StallCheckpointCycles
			}
		case !c.fenceDrained():
			return &c.stats.StallFenceCycles
		case c.pcommitMax > c.now && ckptsFull:
			return &c.stats.StallCheckpointCycles
		}
	}
	return nil
}

// fenceDrained reports whether a non-speculative fence may leave the ROB
// head: stores, flushes and the SSB have drained, and so have pcommits
// unless SP can speculate past them (§4.2.1).
func (c *CPU) fenceDrained() bool {
	return c.storeBufLen() == 0 && c.storeVisibleMax <= c.now &&
		(!c.spEnabled || c.ssb.Len() == 0) && c.flushAckMax <= c.now &&
		(c.spEnabled || c.pcommitMax <= c.now)
}

// noteStall records a blocked retirement attempt charged to counter s (the
// caller adds the cycle): a fence's first blocked cycle opens a
// persist-barrier stall span, and a checkpoint stall is a refused Take.
func (c *CPU) noteStall(s *uint64) {
	c.lastStall = s
	switch s {
	case &c.stats.StallFenceCycles:
		if c.fenceBlockedAt == notIssued {
			c.fenceBlockedAt = c.now
		}
	case &c.stats.StallCheckpointCycles:
		if c.ckpts.Take() {
			panic("cpu: checkpoint stall with a free checkpoint")
		}
	}
}

func (c *CPU) noteStoreWhilePcommit() {
	if c.outstandingPcommits() > 0 {
		c.stats.StoresWhilePcommitOutstanding++
	}
}

func (c *CPU) retireStore(in isa.Instr) bool {
	if c.buffering() {
		if c.boundaryState != 0 {
			c.finalizeBoundary()
			if c.boundaryState != 0 {
				c.lastStall = &c.stats.StallCheckpointCycles
				return false // waiting for a checkpoint
			}
		}
		if !c.pushSSB(spStoreEntry(in, c.currentEpochID())) {
			c.stats.SSBFullStalls++
			c.lastStall = &c.stats.StallSSBFullCycles
			return false
		}
		if c.speculating() {
			c.blt.Record(in.Addr)
		}
		if c.bloom != nil {
			c.bloom.Add(in.Addr)
		}
		c.stats.Stores++
		c.noteStoreWhilePcommit()
		return true
	}
	c.pushStoreBuf(sbEntry{addr: in.Addr, size: in.Size})
	c.stats.Stores++
	c.noteStoreWhilePcommit()
	return true
}

func (c *CPU) retireFlush(in isa.Instr) bool {
	if c.buffering() {
		if c.boundaryState != 0 {
			c.finalizeBoundary()
			if c.boundaryState != 0 {
				c.lastStall = &c.stats.StallCheckpointCycles
				return false
			}
		}
		if !c.cfg.SP.DelayPMEMOps && c.speculating() {
			// Ablation: PMEM ops cannot execute speculatively and are not
			// delayed — stall until speculation fully drains.
			c.lastStall = &c.stats.StallNoDelayCycles
			return false
		}
		if !c.pushSSB(spFlushEntry(in, c.currentEpochID())) {
			c.stats.SSBFullStalls++
			c.lastStall = &c.stats.StallSSBFullCycles
			return false
		}
		c.stats.DelayedPMEMOps++
		c.countFlush(in)
		c.noteStoreWhilePcommit()
		return true
	}
	ack := c.h.Flush(in.Addr, c.lineVisibleAt(in.Addr), in.Op != isa.Clwb)
	if ack > c.flushAckMax {
		c.flushAckMax = ack
	}
	c.logCommit(in.Op, in.Addr)
	c.countFlush(in)
	c.noteStoreWhilePcommit()
	return true
}

func (c *CPU) countFlush(in isa.Instr) {
	if in.Op == isa.Clwb {
		c.stats.Clwbs++
	} else {
		c.stats.Clflushes++
	}
}

func (c *CPU) retirePcommit() bool {
	if c.buffering() {
		if c.boundaryState == 1 {
			// Part of an sfence–pcommit(–sfence) barrier.
			c.boundaryState = 2
			c.stats.Pcommits++
			return true
		}
		if !c.cfg.SP.DelayPMEMOps && c.speculating() {
			c.lastStall = &c.stats.StallNoDelayCycles
			return false
		}
		if !c.pushSSB(spPcommitEntry(c.currentEpochID())) {
			c.stats.SSBFullStalls++
			c.lastStall = &c.stats.StallSSBFullCycles
			return false
		}
		c.stats.DelayedPMEMOps++
		c.stats.Pcommits++
		return true
	}
	done := c.mc.Pcommit(c.now)
	c.tl.Span(obs.TrackPMEM, "pcommit", c.now, done)
	c.logCommit(isa.Pcommit, 0)
	c.outstandingPcommits()
	c.pcommitDones = append(c.pcommitDones, done)
	if n := len(c.pcommitDones); n > c.stats.MaxConcurrentPcommits {
		c.stats.MaxConcurrentPcommits = n
	}
	if done > c.pcommitMax {
		c.pcommitMax = done
	}
	c.stats.Pcommits++
	return true
}

// retirePos returns the trace position of the instruction at the ROB head
// (the one currently retiring): everything fetched minus everything still
// queued behind or at it.
func (c *CPU) retirePos() uint64 {
	return c.fetchPos - uint64(c.fetchQLen()) - uint64(c.robCount())
}

// retireFence handles sfence/mfence, including speculation entry and child
// epoch boundaries.
func (c *CPU) retireFence() bool {
	if c.speculating() {
		// A fence inside a speculative region starts (or continues) an
		// epoch boundary.
		switch c.boundaryState {
		case 0:
			c.boundaryState = 1
			c.boundaryPos = c.retirePos()
			c.stats.Sfences++
			return true
		case 1:
			// sfence;sfence — finalize the plain boundary, then start a
			// new one for this fence.
			c.finalizeBoundary()
			if c.boundaryState != 0 {
				c.lastStall = &c.stats.StallCheckpointCycles
				return false
			}
			c.boundaryState = 1
			c.boundaryPos = c.retirePos()
			c.stats.Sfences++
			return true
		case 2:
			// sfence;pcommit;sfence — the canonical persist barrier.
			if !c.openChildEpoch(true) {
				c.lastStall = &c.stats.StallCheckpointCycles
				return false // no checkpoint free
			}
			c.boundaryState = 0
			c.stats.Sfences++
			return true
		}
	}

	// Non-speculative (or tail-draining) fence: stallOf held it until
	// stores, flushes and the SSB drained.
	if c.pcommitMax <= c.now {
		c.closeFenceStall()
		c.stats.Sfences++
		return true
	}
	// Speculation triggers when the fence is blocked only on a pending
	// pcommit (§4.2.1); without SP, or with every checkpoint taken,
	// stallOf holds it.
	if !c.ckpts.Take() {
		panic("cpu: speculation entry without a free checkpoint")
	}
	c.closeFenceStall()
	if c.specSince == notIssued {
		c.specSince = c.now
	}
	c.stats.SpecEntries++
	c.stats.SpecEpochs++
	ep := &epoch{
		id:          c.nextEpoch,
		waitUntil:   c.pcommitMax,
		checkpoints: 1,
		openedAt:    c.now,
		// The entry fence itself replays on rollback; it carries no
		// unissued pcommit (the one it blocked on already issued), so
		// both resume positions coincide.
		fetchPos:   c.retirePos(),
		barrierPos: c.retirePos(),
	}
	c.nextEpoch++
	c.epochs = append(c.epochs, ep)
	c.stats.Sfences++
	return true
}

// closeFenceStall ends an open persist-barrier stall span: the fence that
// was blocking retirement has retired (or converted into speculation).
func (c *CPU) closeFenceStall() {
	if c.fenceBlockedAt != notIssued {
		c.tl.Span(obs.TrackRetire, "barrier.stall", c.fenceBlockedAt, c.now)
		c.fenceBlockedAt = notIssued
	}
}

// drainStoreBuffer issues one buffered (non-speculative) store per cycle to
// the cache.
func (c *CPU) drainStoreBuffer() bool {
	if c.storeBufLen() == 0 || c.sbDrainFree > c.now {
		return false
	}
	e := c.popStoreBuf()
	done := c.h.Store(e.addr, c.now)
	c.logCommit(isa.Store, e.addr)
	if done > c.storeVisibleMax {
		c.storeVisibleMax = done
	}
	c.noteLineVisible(e.addr, done)
	c.sbDrainFree = c.now + 1
	return true
}
