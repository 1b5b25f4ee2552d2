package cpu

import (
	"specpersist/internal/isa"
	"specpersist/internal/obs"
	"specpersist/internal/sp"
	"specpersist/internal/trace"
)

// spStoreEntry builds the SSB entry for a speculatively retired store.
func spStoreEntry(in isa.Instr, epochID int) sp.Entry {
	return sp.Entry{Op: isa.Store, Addr: in.Addr, Size: in.Size, Epoch: epochID}
}

// spFlushEntry builds the SSB entry for a delayed clwb/clflushopt/clflush.
func spFlushEntry(in isa.Instr, epochID int) sp.Entry {
	return sp.Entry{Op: in.Op, Addr: in.Addr, Epoch: epochID}
}

// spPcommitEntry builds the SSB entry for a delayed stand-alone pcommit.
func spPcommitEntry(epochID int) sp.Entry {
	return sp.Entry{Op: isa.Pcommit, Epoch: epochID}
}

// currentEpochID returns the epoch new SSB entries belong to: the youngest
// live epoch, or the post-speculation tail.
func (c *CPU) currentEpochID() int {
	if len(c.epochs) == 0 {
		return tailEpochID
	}
	return c.epochs[len(c.epochs)-1].id
}

// pushSSB appends an entry and maintains the owning epoch's entry count.
func (c *CPU) pushSSB(e sp.Entry) bool {
	if !c.ssb.Push(e) {
		return false
	}
	if n := c.ssb.Len(); n > c.ssbHigh {
		c.ssbHigh = n
		c.tl.Count(obs.TrackSSB, "ssb.occupancy", c.now, uint64(n))
	}
	if len(c.epochs) > 0 && e.Epoch == c.epochs[len(c.epochs)-1].id {
		c.epochs[len(c.epochs)-1].remaining++
	}
	return true
}

// finalizeBoundary closes a pending fence boundary when a non-barrier
// instruction reaches retirement: state 1 means a lone sfence, state 2
// means sfence–pcommit without the trailing sfence. Either way a child
// epoch opens; on checkpoint shortage the boundary state is left intact and
// the caller stalls.
func (c *CPU) finalizeBoundary() {
	switch c.boundaryState {
	case 1:
		if c.openChildEpoch(false) {
			c.boundaryState = 0
		}
	case 2:
		if c.openChildEpoch(true) {
			c.boundaryState = 0
		}
	}
}

// openChildEpoch begins a new speculative epoch at a barrier. With the
// collapse optimization an sfence–pcommit–sfence costs one checkpoint;
// with it disabled (ablation) the pair costs two.
func (c *CPU) openChildEpoch(withPcommit bool) bool {
	need := 1
	if withPcommit && !c.cfg.SP.CollapseBarrierPair {
		need = 2
	}
	for i := 0; i < need; i++ {
		if !c.ckpts.Take() {
			for ; i > 0; i-- {
				c.ckpts.Release()
			}
			return false
		}
	}
	ep := &epoch{
		id:           c.nextEpoch,
		needsPcommit: withPcommit,
		checkpoints:  need,
		openedAt:     c.now,
		fetchPos:     c.retirePos(),
		barrierPos:   c.boundaryPos,
	}
	c.nextEpoch++
	c.epochs = append(c.epochs, ep)
	c.stats.SpecEpochs++
	return true
}

// commitEngineStep advances the background commit of speculative state: the
// oldest epoch waits for its boundary (the pending pcommit), then its SSB
// entries drain in order — stores to the cache, delayed PMEM instructions
// executed non-speculatively — and its checkpoint is released. Epochs
// commit strictly in sequence (§4.1). Entries in the post-speculation tail
// drain freely.
func (c *CPU) commitEngineStep() bool {
	if !c.spEnabled {
		return false
	}
	if len(c.epochs) == 0 {
		return c.drainTail()
	}
	head := c.epochs[0]
	// Phase 1: satisfy the boundary.
	if head.needsPcommit && !head.barrierIssued {
		// The boundary pcommit orders everything the previous epochs made
		// visible; it issues once nothing older remains in flight.
		if c.storeVisibleMax > c.now || c.flushAckMax > c.now {
			return false
		}
		done := c.mc.Pcommit(c.now)
		c.tl.Span(obs.TrackPMEM, "pcommit.barrier", c.now, done)
		c.logCommit(isa.Pcommit, 0)
		c.outstandingPcommits()
		c.pcommitDones = append(c.pcommitDones, done)
		if n := len(c.pcommitDones); n > c.stats.MaxConcurrentPcommits {
			c.stats.MaxConcurrentPcommits = n
		}
		head.barrierIssued = true
		head.waitUntil = done
		if done > c.pcommitMax {
			c.pcommitMax = done
		}
		return true
	}
	if head.waitUntil > c.now {
		return false
	}
	// Phase 2: drain this epoch's SSB entries (one per cycle).
	if head.remaining > 0 {
		if c.commitFree > c.now {
			return false
		}
		e, ok := c.ssb.Front()
		if !ok || e.Epoch != head.id {
			panic("cpu: SSB front does not belong to the committing epoch")
		}
		head.draining = true
		c.ssb.Pop()
		head.remaining--
		c.drainEntry(e, head)
		c.commitFree = c.now + 1
		return true
	}
	// Phase 3: wait for the drained entries' effects, then release.
	if head.visibleMax > c.now {
		return false
	}
	c.tl.Span(obs.TrackSpeculation, "sp.epoch", head.openedAt, c.now)
	for i := 0; i < head.checkpoints; i++ {
		c.ckpts.Release()
	}
	c.epochs = c.epochs[1:]
	if len(c.epochs) == 0 && c.ssb.Len() == 0 {
		c.exitSpeculation()
	}
	return true
}

// drainEntry applies one SSB entry non-speculatively.
func (c *CPU) drainEntry(e sp.Entry, ep *epoch) {
	c.logCommit(e.Op, e.Addr)
	switch e.Op {
	case isa.Store:
		done := c.h.Store(e.Addr, c.now)
		if done > c.storeVisibleMax {
			c.storeVisibleMax = done
		}
		c.noteLineVisible(e.Addr, done)
		if ep != nil && done > ep.visibleMax {
			ep.visibleMax = done
		}
	case isa.Clwb, isa.Clflushopt, isa.Clflush:
		ack := c.h.Flush(e.Addr, c.lineVisibleAt(e.Addr), e.Op != isa.Clwb)
		if ack > c.flushAckMax {
			c.flushAckMax = ack
		}
		if ep != nil && ack > ep.visibleMax {
			ep.visibleMax = ack
		}
	case isa.Pcommit:
		done := c.mc.Pcommit(c.now)
		c.tl.Span(obs.TrackPMEM, "pcommit", c.now, done)
		c.outstandingPcommits()
		c.pcommitDones = append(c.pcommitDones, done)
		if n := len(c.pcommitDones); n > c.stats.MaxConcurrentPcommits {
			c.stats.MaxConcurrentPcommits = n
		}
		if done > c.pcommitMax {
			c.pcommitMax = done
		}
	}
}

// drainTail drains post-speculation entries that only remain for store
// ordering.
func (c *CPU) drainTail() bool {
	if c.ssb.Len() == 0 || c.commitFree > c.now {
		return false
	}
	e, _ := c.ssb.Pop()
	c.drainEntry(e, nil)
	c.commitFree = c.now + 1
	if c.ssb.Len() == 0 {
		c.exitSpeculation()
	}
	return true
}

// exitSpeculation resets the speculative tracking structures once all
// buffered state has committed.
func (c *CPU) exitSpeculation() {
	if c.specSince != notIssued {
		c.tl.Span(obs.TrackSpeculation, "sp.speculation", c.specSince, c.now)
		c.specSince = notIssued
	}
	if c.bloom != nil {
		c.bloom.Clear()
	}
	c.blt.Clear()
	c.boundaryState = 0
}

// ProbeResult classifies a coherence probe's outcome at this core.
type ProbeResult int

const (
	// ProbeMiss: no conflict — the core is not speculating, or the address
	// does not hit the BLT. The probe proceeds normally.
	ProbeMiss ProbeResult = iota
	// ProbeDeferred: the address conflicts, but the oldest epoch has begun
	// committing its SSB entries to the memory system and can no longer be
	// squashed without duplicating committed effects. The directory must
	// retry the probe (NACK); the requester stalls.
	ProbeDeferred
	// ProbeRollback: the conflict aborted speculation and the core rolled
	// back to its oldest checkpoint.
	ProbeRollback
)

// Probe models an external coherence request to addr (§4.2.2). A hit in
// the BLT aborts speculation: all speculative state is discarded, every
// checkpoint released, and execution restarts at the oldest checkpoint.
// If the oldest epoch is already mid-commit (SSB entries partially
// drained), the probe is deferred instead — the directory NACKs the
// requester and retries once the epoch finishes committing. The trace
// source must implement trace.Seeker for rollback to be possible.
func (c *CPU) Probe(addr uint64) ProbeResult {
	if !c.spEnabled || !c.speculating() || !c.blt.Conflicts(addr) {
		return ProbeMiss
	}
	if c.epochs[0].draining {
		return ProbeDeferred
	}
	c.rollback()
	return ProbeRollback
}

// Draining reports whether the oldest speculative epoch has begun
// committing its SSB entries — the window in which a conflicting probe is
// NACKed (ProbeDeferred) instead of rolling the core back. Harnesses that
// want to exercise the NACK path deliberately (internal/multicore's probe
// injector, the litmus campaigns) key their probes off this.
func (c *CPU) Draining() bool {
	return len(c.epochs) > 0 && c.epochs[0].draining
}

// rollback squashes all speculative state and restarts execution at the
// oldest checkpoint.
func (c *CPU) rollback() {
	seeker, ok := c.src.(trace.Seeker)
	if !ok {
		panic("cpu: rollback requires a seekable trace source")
	}
	c.stats.Rollbacks++
	c.stats.RollbackCycles += c.cfg.RollbackPenalty
	c.tl.Instant(obs.TrackSpeculation, "sp.rollback", c.now)
	oldest := c.epochs[0]
	// Resume after the oldest epoch's barrier when its boundary pcommit
	// has already been issued (re-running the barrier would duplicate it);
	// otherwise at the barrier's first sfence, so the unissued pcommit
	// replays and reaches the memory system exactly once. Younger epochs'
	// boundaries are never issued out of order, so replaying everything
	// from this position re-executes each of their effects exactly once.
	resume := oldest.fetchPos
	if oldest.needsPcommit && !oldest.barrierIssued {
		resume = oldest.barrierPos
	}
	// Squash the pipeline and all speculative state.
	for _, ep := range c.epochs {
		for i := 0; i < ep.checkpoints; i++ {
			c.ckpts.Release()
		}
	}
	c.epochs = nil
	c.ssb.Flush()
	c.exitSpeculation()
	if c.ref != nil {
		c.ref.fetchQ = nil
		c.ref.rob = nil
		c.ref.storeBuf = nil
		clear(c.ref.pendingReg)
		clear(c.ref.storesByLine)
	} else {
		c.fqHead, c.fqLen = 0, 0
		c.robHead, c.robLen = 0, 0
		c.sbufHead, c.sbufLen = 0, 0
		c.ssqHead, c.ssqLen = 0, 0
		c.unissHead, c.unissTail = -1, -1
		c.readyCount = 0
		c.wakes = c.wakes[:0]
		c.sbrd.clear()
		// The cached trace block is past the resume point; drop it so the
		// next fetch re-reads from the seeked position. Stale lineSeq
		// entries are harmless: squashed stores' sequences compare below
		// any store dispatched after the rollback.
		c.blk = nil
		c.blkPos, c.blkSub = 0, 0
		c.plainUnissued = 0
		c.fetchDst = isa.NoReg
	}
	c.unissued = 0
	c.lsqCount = 0
	seeker.Seek(resume)
	c.fetchPos = resume
	c.srcDone = false
	// Refill penalty, and hold stores/PMEM retirement until the pcommit
	// the oldest epoch was speculating past completes (the fence it
	// replaced re-acquires its ordering).
	c.now += c.cfg.RollbackPenalty
	if c.pcommitMax > c.retireHoldTil {
		c.retireHoldTil = c.pcommitMax
	}
}
