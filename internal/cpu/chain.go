package cpu

import (
	"math"

	"specpersist/internal/isa"
)

// Chain fast-forward. Every workload operation starts with a long serial
// preamble of dependent 1-cycle ALU instructions (trace.Builder.Chain), and
// once it fills the pipeline each busy cycle is the same: the ROB head
// retires, the next link issues, one link dispatches and one is fetched.
// The outcome of such a run of cycles is fully determined, so StepTo covers
// it in one call with work proportional to the ROB and fetch queue instead
// of to its length, leaving exactly the state the single steps would.

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
// stepping the core; in the chain steady state one call covers every busy
// cycle up to the earliest of the horizon, the end of the link run ahead
// of fetch and the commit engine's next move, and leaves the state that
// many Steps would. Otherwise it is exactly Step. The batch never runs under
// reference stepping, a cycle hook or a timeline; callers that observe
// every cycle call Step.
func (c *CPU) StepTo(horizon uint64) bool {
	if c.unlinked == 0 && horizon > c.now+1 && c.chainForward(horizon) {
		return true
	}
	return c.Step()
}

// chainForward runs the fast-forward when the core is in the chain steady
// state at a cycle from which at least two busy cycles may be covered, and
// reports whether it did. StepTo has already checked that every in-flight
// entry is a chain link and that the horizon is at least two cycles off.
// The rest of the steady state at cycle t: the fetch queue is full and the
// store buffer empty; the ROB head issued last cycle and completes at t;
// the entry behind it is the oldest unissued one and its single pending
// wakeup arms it at t; every younger ROB entry is unissued; and dispatch
// is capped at one instruction a cycle (ROB or issue queue full after one
// slot frees, or a one-wide issue). Then each cycle retires, issues,
// dispatches and fetches exactly one link, and the commit engine is the
// only other stage that could act.
func (c *CPU) chainForward(horizon uint64) bool {
	if c.fqLen != len(c.fq) || c.robLen < 2 || c.sbufLen != 0 ||
		c.ref != nil || c.cycleHook != nil || c.tl != nil {
		return false
	}
	t := c.now
	r := c.robLen
	ls := c.robSlot(1)
	l := &c.rob[ls]
	if c.rob[c.robHead].done != t || l.done != notIssued || l.waiting != 0 || l.armed ||
		c.readyCount != 0 || c.unissued != r-1 ||
		len(c.wakes) != 1 || c.wakes[0] != (wake{t: t, slot: int32(ls), seq: l.seq}) {
		return false
	}
	if r != c.cfg.ROB && c.unissued != c.cfg.IssueQ && c.cfg.IssueWidth != 1 {
		return false
	}
	k := horizon - t
	if ce := c.commitEngineNext(); ce-t < k {
		k = ce - t
	}
	if run := uint64(c.linkRun()); run < k {
		k = run
	}
	if k < 2 {
		return false
	}
	c.chainAdvance(int(k))
	return true
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
	if c.blkPos < len(c.blk) && c.blk[c.blkPos].Op == isa.Chain {
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

// chainAdvance applies k steady-state cycles at once. Number the in-flight
// links s_0 (the ROB head) to s_{r-1} (the ROB tail), then the fetch queue,
// then the stream ahead of fetch. After k cycles s_0..s_{k-1} have retired;
// s_k heads the ROB, issued at cycle t+k-1; s_{k+1} is armed for t+k;
// s_{k+2}..s_{k+r-1} wait on their predecessors; and the fetch queue holds
// the next FetchQ links. Only entries whose state differs from the current
// one are written, so the work is O(min(k, ROB) + min(k, FetchQ)).
func (c *CPU) chainAdvance(k int) {
	t := c.now
	n, r, f := len(c.rob), c.robLen, len(c.fq)
	seq0 := c.seq - uint64(r-1) // dispatch sequence of s_0
	last := k + r - 1

	// Retire s_0..s_{k-1}: the ones still in the ROB leave the scoreboard
	// (their waiters were all released when they executed).
	for m, sl := 0, c.robHead; m < min(k, r); m++ {
		c.sbrd.del(uint32(c.rob[sl].in.Dst))
		sl = ringNext(sl, n)
	}
	c.stats.ALUs += uint64(k)
	c.stats.Committed += uint64(k)

	// link returns s_m, m < last: the ROB, then the fetch queue (read
	// before it is refilled below), then the stream ahead of fetch.
	link := func(m, sl int) isa.Instr {
		if m < r {
			return c.rob[sl].in
		}
		if i := m - r; i < f {
			return c.fq[ringAdd(c.fqHead, i, f)]
		}
		return c.ahead(m - r - f)
	}
	// set writes s_m's final ROB entry at slot sl: issued (m == k), armed
	// at t+k (m == k+1) or waiting on s_{m-1}, and threaded on the
	// unissued list. With sbrd it also writes s_m's scoreboard slot: s_k
	// completes at t+k with its waiter released, the others are pending
	// with s_{m+1} chained on them.
	set := func(m, sl int, sbrd bool) {
		in := link(m, sl)
		e := &c.rob[sl]
		e.in, e.seq, e.blockSeq = in, seq0+uint64(m), 0
		e.next, e.prev, e.waitNext = -1, -1, [2]int32{-1, -1}
		e.waiting, e.armed, e.link = 0, false, true
		done, chain := uint64(regUnknown), int32(-1)
		switch {
		case m == k:
			e.done, e.rdy = t+uint64(k), t+uint64(k)-1
			done = e.done
		case m == k+1:
			e.done, e.rdy = notIssued, t+uint64(k)
		default:
			e.done, e.rdy, e.waiting = notIssued, 0, 1
			e.prev = int32(ringPrev(sl, n))
		}
		if m > k && m < last {
			e.next = int32(ringNext(sl, n))
			chain = e.next << 1
		}
		if sbrd {
			c.sbrd.put(uint32(in.Dst), done, chain)
		}
	}
	// s_k and s_{k+1} change state; among the older survivors only the old
	// tail s_{r-1} gains a successor; everything from r on is new.
	kSl := c.robSlot(k)
	set(k, kSl, true)
	lo := max(r-1, k+1)
	if k+1 < lo {
		set(k+1, ringNext(kSl, n), false)
	}
	for m, sl := lo, c.robSlot(lo); m <= last; m++ {
		set(m, sl, true)
		sl = ringNext(sl, n)
	}
	k1 := ringNext(kSl, n)
	c.wakes[0] = wake{t: t + uint64(k), slot: int32(k1), seq: seq0 + uint64(k+1)}
	c.unissHead, c.unissTail = int32(k1), int32(c.robSlot(last))
	c.robHead = kSl
	c.seq += uint64(k)

	// The fetch queue keeps its last f-k links and gains the newest k
	// fetched ones (all f of them when k >= f).
	j := max(0, k-f)
	for i := ringAdd(c.fqHead, j%f, f); j < k; j++ {
		c.fq[i] = c.ahead(j)
		c.fqLink[i] = true
		i = ringNext(i, f)
	}
	c.fqHead = ringAdd(c.fqHead, k%f, f)
	c.fetchDst = c.ahead(k - 1).Dst
	if rec := c.blk[c.blkPos]; rec.Op == isa.Chain {
		if c.blkSub += k; c.blkSub == rec.Links() {
			c.blkPos, c.blkSub = c.blkPos+1, 0
		}
	} else {
		c.blkPos += k
	}
	c.fetchPos += uint64(k)

	c.now += uint64(k)
	c.idleSteps = 0
	c.lastStall = nil
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
