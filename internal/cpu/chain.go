package cpu

import (
	"math"

	"specpersist/internal/isa"
)

// Chain fast-forward. Every workload operation starts with a long serial
// preamble of dependent 1-cycle ALU instructions (trace.Builder.Chain), and
// for most of the preamble's lifetime the links are the only instructions
// that move: they fill the ROB behind a barrier blocked on its pcommit,
// catch up retiring RetireWidth a cycle once it releases, then stream one a
// cycle through a full pipeline. StepTo covers such a run of cycles in one
// call, a batch. The batch tracks the links as positions in the stream and
// counters (retired, issued, dispatched and fetched up to), so a cycle costs
// a few comparisons and the steady state is skipped in one jump; it writes
// only the ROB, fetch-queue, scoreboard and wake state the last cycle
// leaves, so its work is proportional to the ROB and fetch queue plus the
// cycles outside the steady state. Regimes and where each ends:
//
//   - fill: the ROB head is not a link and cannot retire yet (incomplete,
//     or held by a fence release, flush order behind the store buffer, a
//     full store buffer, the post-rollback hold or a full checkpoint
//     buffer, as stallOf names it); links issue, dispatch and fetch under
//     the ROB, issue-queue and fetch-queue caps, and the head's stall
//     counter grows once a cycle. It ends the cycle the head would retire
//     or stall on anything else.
//   - catch-up: completed links (and plain ALUs and loads) retire
//     RetireWidth a cycle; it ends at a head with any other effect.
//   - steady state: the head issued last cycle, every younger ROB entry is
//     unissued, the fetch queue is full and dispatch is capped at one, so
//     each cycle retires, issues, dispatches and fetches exactly one link.
//     It is applied as one jump up to the next event.
//   - drain: the operation behind the chain is fetched and waits in the
//     fetch queue while the links drain; it ends when dispatch reaches the
//     operation's first instruction.
//
// The commit engine and the store-buffer drain never read chain state, so
// a batch runs them itself at the cycles they act. Every batch also ends
// before a cycle in which dispatch would take anything but a link, fetch
// would need a new trace block, or no stage would act (Step then jumps to
// the next event), and at the horizon.

// chainLink reports whether in is a chain link of the instruction before it
// in the stream, whose destination is prevDst: a dependent 1-cycle ALU
// reading only that register and writing a higher one. Strictly increasing
// destinations keep every in-flight link's register distinct.
func chainLink(prevDst isa.Reg, in isa.Instr) bool {
	return in.Op == isa.ALU && in.Src2 == isa.NoReg && in.Lat <= 1 &&
		prevDst != isa.NoReg && in.Src1 == prevDst && in.Dst > prevDst
}

// StepTo is Step for callers that know how far the core may run
// unobserved. horizon is the first cycle at which the caller would stop
// stepping the core. While every unissued ROB entry is a chain link, one
// call covers every cycle up to the horizon in which only links, the
// commit engine and the store-buffer drain move (the regimes above), and
// leaves the state that many Steps would. Otherwise it is exactly Step.
// The batch never runs under reference stepping, a cycle hook or a
// timeline; callers that observe every cycle call Step.
func (c *CPU) StepTo(horizon uint64) bool {
	if c.plainUnissued == 0 && horizon > c.now+1 && c.chainForward(horizon) {
		return true
	}
	return c.Step()
}

// chainForward runs one batch from the current cycle up to at most the
// horizon and reports whether it covered any cycle. StepTo has already
// checked that every unissued ROB entry is a link. Positions number the
// in-flight instructions from the ROB head (0) through the fetch queue and
// on into the current trace block; p < ret have retired, p < iss issued,
// p < disp dispatched and p < fet been fetched. Unissued entries are the
// ROB's youngest (links, each waiting on the one before), so only the
// oldest of them, iss, can be ready: at cycle rdyT, armed (issuable from
// the cycle after its dispatch) or by a wakeup. Dispatch stops short of
// stop, the first non-link after the ROB; fetch may go on to avail, the
// end of the block (see countBlock).
func (c *CPU) chainForward(horizon uint64) bool {
	if c.ref != nil || c.cycleHook != nil || c.tl != nil {
		return false
	}
	// Refuse at once the two commonest first cycles no batch covers:
	// dispatch takes a non-link from the fetch queue, or a non-link ROB
	// head retires.
	if c.fqLen > 0 && !c.fqLink[c.fqHead] && c.robLen < c.cfg.ROB && c.unissued < c.cfg.IssueQ {
		return false
	}
	if e := &c.rob[c.robHead]; c.robLen > 0 && !e.link && e.done <= c.now &&
		e.in.Op != isa.ALU && e.in.Op != isa.Load && c.stallOf(e.in) == nil {
		return false
	}
	b := chainBatch{r0: c.robLen, f0: c.fqLen, iss0: c.robLen - c.unissued, zero: -1}
	if c.unissued > 0 {
		s := c.robSlot(b.iss0)
		e := &c.rob[s]
		switch {
		case c.unissHead != int32(s):
			return false
		case e.armed && c.readyCount == 1 && len(c.wakes) == 0:
			b.rdyT, b.armed = c.now, true
		case !e.armed && c.readyCount == 0 && len(c.wakes) == 1 && c.wakes[0].slot == int32(s) && c.wakes[0].seq == e.seq:
			b.rdyT = c.wakes[0].t
		default:
			return false
		}
	} else if c.readyCount != 0 || len(c.wakes) != 0 {
		return false
	}
	b.ret, b.iss, b.disp, b.fet = 0, b.iss0, b.r0, b.r0+b.f0
	b.run = c.linkRun()
	b.avail = b.fet + b.run
	b.stop = b.avail
	for i := 0; i < c.fqLen; i++ {
		if !c.fqLink[ringAdd(c.fqHead, i, len(c.fq))] {
			b.stop = b.r0 + i
			break
		}
	}
	t := c.now
	cyc := b.advance(c, t, horizon)
	if cyc == t {
		c.now = t
		return false
	}
	c.chainApply(&b, cyc)
	return true
}

// chainBatch is a batch's position counters (see chainForward). run is
// the length of the link run ahead of fetch, and avail starts at its end;
// zero is the position last
// dispatched into an empty ROB, whose readiness stays 0 because its
// predecessor had already retired. The retired plain loads and ALUs are
// counted for the stats.
type chainBatch struct {
	r0, f0, iss0        int
	ret, iss, disp, fet int
	stop, avail, run    int
	counted             bool
	zero                int
	rdyT                uint64
	armed               bool
	alus, loads         uint64
}

// done returns position p's completion cycle, p issued: from its ROB entry
// when it issued before the batch, else as the batch recorded it.
func (b *chainBatch) done(c *CPU, p int) uint64 {
	if p < b.iss0 {
		return c.rob[ringAdd(c.robHead, p, len(c.rob))].done
	}
	return c.linkDone[p&(len(c.linkDone)-1)]
}

// advance advances the batch cycle by cycle from t, applying the commit
// engine and the store-buffer drain at the cycles they act, and returns
// the first cycle it did not cover.
func (b *chainBatch) advance(c *CPU, t, horizon uint64) uint64 {
	rw, iw, fw := c.cfg.RetireWidth, c.cfg.IssueWidth, c.cfg.FetchWidth
	robCap, iq, fq := c.cfg.ROB, c.cfg.IssueQ, c.cfg.FetchQ
	ce := c.commitEngineNext()
	cyc := t
	for cyc < horizon {
		if k := b.steady(c, cyc, horizon, ce); k > 0 {
			cyc += k
			continue
		}
		// Retire: plain ALUs and loads leave in order; any other head
		// either stalls on a counter or ends the batch.
		ret := b.ret
		var stall *uint64
		attempted := false
		var loads uint64
		for ret-b.ret < rw && ret < b.iss {
			if b.done(c, ret) > cyc {
				break
			}
			attempted = true
			if ret >= b.r0 {
				ret++
				continue
			}
			in := c.rob[ringAdd(c.robHead, ret, len(c.rob))].in
			if in.Op == isa.ALU || in.Op == isa.Load {
				if in.Op == isa.Load {
					loads++
				}
				ret++
				continue
			}
			c.now = cyc
			if stall = c.stallOf(in); stall == nil {
				return cyc
			}
			break
		}
		ceAct := cyc >= ce
		sbAct := c.sbufLen > 0 && c.sbDrainFree <= cyc
		// Issue the oldest unissued link, dispatch under the ROB and
		// issue-queue caps, fetch while the link run lasts.
		issued := b.iss < b.disp && b.rdyT <= cyc
		iss := b.iss
		if issued {
			iss++
		}
		nd := max(0, min(iw, b.fet-b.disp, robCap-(b.disp-ret), iq-(b.disp-iss)))
		disp := b.disp + nd
		if disp > b.stop {
			return cyc
		}
		nf, fqStall := 0, false
		if !c.srcDone {
			if space := fq - (b.fet - disp); space <= 0 {
				fqStall = true
			} else if nf = min(fw, space); b.fet+nf > b.avail && b.fet+nf > b.countBlock(c) {
				return cyc
			}
		}
		if ret == b.ret && !ceAct && !sbAct && !issued && nd == 0 && nf == 0 {
			return cyc
		}

		// The cycle is covered: apply it.
		if attempted {
			c.lastStall = stall
		}
		if stall != nil {
			c.noteStall(stall)
			*stall++
		}
		b.loads += loads
		b.alus += uint64(ret-b.ret) - loads
		b.ret = ret
		if fqStall {
			c.stats.FetchQStallCycles++
		}
		if ceAct || sbAct {
			c.now = cyc
			if ceAct {
				c.commitEngineStep()
			}
			if sbAct {
				c.drainStoreBuffer()
			}
			ce = max(c.commitEngineNext(), cyc+1)
		}
		if issued {
			c.linkDone[b.iss&(len(c.linkDone)-1)] = cyc + 1
			b.iss = iss
			// An already dispatched successor was waiting on it: released
			// now, woken next cycle.
			b.rdyT, b.armed = cyc+1, false
		}
		for p := b.disp; p < disp; p++ {
			if p != b.iss {
				continue // waits on its unissued predecessor
			}
			switch {
			case p-1 < b.ret:
				b.zero = p
				b.rdyT, b.armed = cyc+1, true
			case b.done(c, p-1) <= cyc:
				b.rdyT, b.armed = cyc+1, true
			default:
				b.rdyT, b.armed = b.done(c, p-1), false
			}
		}
		b.disp = disp
		b.fet += nf
		cyc++
	}
	return cyc
}

// steady applies the steady state from cycle cyc as one jump when it holds
// there, and returns the cycles covered (0 if it does not hold): the head,
// issued in this batch, completes at cyc; every younger ROB entry is
// unissued and the oldest of them is ready at cyc; the fetch queue is full
// and dispatch is capped at one instruction a cycle (ROB or issue queue
// full after one slot frees, or a one-wide issue). The jump ends at the
// horizon, the end of the link run ahead of fetch, and the next cycle at
// which the commit engine or the store-buffer drain acts.
func (b *chainBatch) steady(c *CPU, cyc, horizon, ce uint64) uint64 {
	if b.ret < b.iss0 || b.iss != b.ret+1 || b.iss >= b.disp || b.rdyT != cyc ||
		b.fet-b.disp != c.cfg.FetchQ || c.srcDone || b.done(c, b.ret) != cyc {
		return 0
	}
	if b.disp-b.ret != c.cfg.ROB && b.disp-b.iss != c.cfg.IssueQ && c.cfg.IssueWidth != 1 {
		return 0
	}
	end := min(horizon, ce)
	if c.sbufLen > 0 {
		end = min(end, max(cyc, c.sbDrainFree))
	}
	k := min(end-cyc, uint64(b.stop-b.disp), uint64(b.avail-b.fet))
	if k < 2 {
		return 0
	}
	n := int(k)
	for j := max(0, n-len(c.linkDone)); j < n; j++ {
		c.linkDone[(b.iss+j)&(len(c.linkDone)-1)] = cyc + uint64(j) + 1
	}
	b.ret += n
	b.iss += n
	b.disp += n
	b.fet += n
	b.alus += k
	b.rdyT, b.armed = cyc+k, false
	c.lastStall = nil
	return k
}

// countBlock extends avail from the end of the link run to the end of the
// trace block, where fetch would read a new one, counting at most a fetch
// queue past stop: no batch fetches further, since dispatch stops there.
// It counts once per batch and returns the new avail.
func (b *chainBatch) countBlock(c *CPU) int {
	if b.counted {
		return b.avail
	}
	b.counted = true
	i, sub := c.blkPos, c.blkSub
	if b.run > 0 {
		if c.blk[i].Op == isa.Chain {
			i, sub = i+1, 0
		} else {
			i += b.run
		}
	}
	for ; i < len(c.blk) && b.avail < b.stop+c.cfg.FetchQ; i++ {
		b.avail += c.blk[i].Links() - sub
		sub = 0
	}
	return b.avail
}

// chainApply writes the state the batch leaves at cycle end: retired
// entries leave the scoreboard, every ROB entry the batch issued or
// dispatched is rewritten with its scoreboard slot, the fetch queue takes
// the newly fetched instructions, and fetch moves past them.
func (c *CPU) chainApply(b *chainBatch, end uint64) {
	n, f := len(c.rob), len(c.fq)
	for p := 0; p < min(b.ret, b.r0); p++ {
		if dst := c.rob[c.robSlot(p)].in.Dst; dst != isa.NoReg {
			c.sbrd.del(uint32(dst))
		}
	}
	c.lsqCount -= int(b.loads)
	c.stats.Loads += b.loads
	c.stats.ALUs += b.alus
	c.stats.Committed += b.loads + b.alus

	// Rewrite positions from the oldest one the batch issued on, in
	// ascending order: a new entry's slot can only be that of an entry
	// retired before its predecessor, already read.
	fetched := b.fet - b.r0 - b.f0
	sl := c.robSlot(max(b.ret, b.iss0))
	for p := max(b.ret, b.iss0); p < b.disp; p++ {
		e := &c.rob[sl]
		if p >= b.r0 {
			if i := p - b.r0; i < b.f0 {
				e.in = c.fq[ringAdd(c.fqHead, i, f)]
			} else {
				e.in = c.ahead(i - b.f0)
			}
			e.seq, e.blockSeq, e.link = c.seq+uint64(p-b.r0+1), 0, true
			e.rdy = 0
		}
		// Readiness is the predecessor's completion once it issued, for
		// entries that waited on it (all but an armed oldest one).
		if p != b.zero && p-1 < b.iss && (p >= b.r0 || p > b.iss0) {
			e.rdy = b.done(c, p-1)
		}
		e.next, e.prev, e.waitNext = -1, -1, [2]int32{-1, -1}
		e.waiting, e.armed = 0, false
		done, chain := uint64(regUnknown), int32(-1)
		if p < b.iss {
			e.done = b.done(c, p)
			done = e.done
		} else {
			e.done = notIssued
			if p > b.iss {
				e.waiting, e.prev = 1, int32(ringPrev(sl, n))
			} else {
				e.armed = b.armed
			}
			if p+1 < b.disp {
				e.next = int32(ringNext(sl, n))
				chain = e.next << 1
			}
		}
		c.sbrd.put(uint32(e.in.Dst), done, chain)
		sl = ringNext(sl, n)
	}

	c.wakes = c.wakes[:0]
	c.readyCount = 0
	c.unissHead, c.unissTail = -1, -1
	if b.iss < b.disp {
		s := c.robSlot(b.iss)
		c.unissHead, c.unissTail = int32(s), int32(c.robSlot(b.disp-1))
		if b.armed {
			c.readyCount = 1
		} else {
			c.wakes = append(c.wakes, wake{t: b.rdyT, slot: int32(s), seq: c.rob[s].seq})
		}
	}
	c.robHead = c.robSlot(b.ret)
	c.robLen = b.disp - b.ret
	c.unissued = b.disp - b.iss
	c.seq += uint64(b.disp - b.r0)

	// Fetch moves past the links dispatched straight on in one step, then
	// the fetch queue gains the instructions still in it, as fetch would
	// take them.
	if skip := min(fetched, b.disp-b.r0-b.f0); skip > 0 {
		c.fetchDst = c.ahead(skip - 1).Dst
		if rec := c.blk[c.blkPos]; rec.Op == isa.Chain {
			if c.blkSub += skip; c.blkSub == rec.Links() {
				c.blkPos, c.blkSub = c.blkPos+1, 0
			}
		} else {
			c.blkPos += skip
		}
	}
	for p := max(b.disp, b.r0+b.f0); p < b.fet; p++ {
		in := c.blk[c.blkPos]
		if in.Op == isa.Chain {
			in = c.nextLink(in)
		} else {
			c.blkPos++
		}
		i := ringAdd(c.fqHead, (p-b.r0)%f, f)
		c.fq[i], c.fqLink[i] = in, chainLink(c.fetchDst, in)
		c.fetchDst = in.Dst
	}
	c.fqHead = ringAdd(c.fqHead, (b.disp-b.r0)%f, f)
	c.fqLen = b.fet - b.disp
	c.fetchPos += uint64(fetched)

	c.now = end
	c.idleSteps = 0
}

// robSlot returns the ROB slot of the m-th in-flight entry (0 = head),
// m >= 0, counting on past the tail for entries not yet dispatched.
func (c *CPU) robSlot(m int) int {
	return (c.robHead + m) % len(c.rob)
}

// linkRun returns how many instructions from the fetch position on are
// chain links of their predecessors. At a chain record it is the record's
// unfetched length (or 0 when its next link does not follow the last
// fetched instruction); otherwise it extends the cached scan of plain
// instructions only when fetch has passed it, so each one is examined
// once. A run ends at the next record boundary either way.
func (c *CPU) linkRun() int {
	if c.blkPos >= len(c.blk) {
		return 0 // the next fetch reads a new block
	}
	if c.blk[c.blkPos].Op == isa.Chain {
		rec := c.blk[c.blkPos]
		if !chainLink(c.fetchDst, rec.Link(c.blkSub)) {
			return 0
		}
		return rec.Links() - c.blkSub
	}
	if c.linkEnd <= c.blkPos {
		prev, i := c.fetchDst, c.blkPos
		for i < len(c.blk) && chainLink(prev, c.blk[i]) {
			prev = c.blk[i].Dst
			i++
		}
		c.linkEnd = i
	}
	return c.linkEnd - c.blkPos
}

// commitEngineNext returns the first cycle from now on at which
// commitEngineStep would make progress if no other stage changed the state
// it reads (chain cycles change none of it), or math.MaxUint64 if it never
// would.
func (c *CPU) commitEngineNext() uint64 {
	if !c.spEnabled {
		return math.MaxUint64
	}
	if len(c.epochs) == 0 {
		if c.ssb.Len() == 0 {
			return math.MaxUint64
		}
		return max(c.now, c.commitFree)
	}
	head := c.epochs[0]
	if head.needsPcommit && !head.barrierIssued {
		return max(c.now, c.storeVisibleMax, c.flushAckMax)
	}
	if head.remaining > 0 {
		return max(c.now, head.waitUntil, c.commitFree)
	}
	return max(c.now, head.waitUntil, head.visibleMax)
}

// ahead returns the instruction j places past the fetch position, j below
// linkRun(): a link synthesized from the chain record there, or a plain
// instruction of the block.
func (c *CPU) ahead(j int) isa.Instr {
	if rec := c.blk[c.blkPos]; rec.Op == isa.Chain {
		return rec.Link(c.blkSub + j)
	}
	return c.blk[c.blkPos+j]
}

// ringNext, ringPrev and ringAdd step ring index i (below n) by one, back
// one, or by d < n, without a division.
func ringNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

func ringPrev(i, n int) int {
	if i == 0 {
		return n - 1
	}
	return i - 1
}

func ringAdd(i, d, n int) int {
	if i += d; i >= n {
		i -= n
	}
	return i
}
