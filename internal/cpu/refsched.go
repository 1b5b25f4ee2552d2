package cpu

import (
	"specpersist/internal/isa"
	"specpersist/internal/mem"
)

// The reference scheduler is the original straight-line implementation of
// the pipeline front end: dynamic slices for the fetch queue, ROB and store
// buffer, and maps for register dependences (pendingReg), in-ROB store
// ordering (storesByLine) and line visibility (lineVis), all re-queried
// every cycle. It is kept as the oracle the indexed fast path is verified
// against — the two must produce byte-identical commit logs, metrics and
// timing on every trace.

// refRobEntry is the reference scheduler's ROB entry.
type refRobEntry struct {
	in   isa.Instr
	seq  uint64
	done uint64 // notIssued until executed
}

// refSched holds the reference scheduler's pipeline state.
type refSched struct {
	fetchQ       []isa.Instr
	rob          []refRobEntry
	storeBuf     []sbEntry
	pendingReg   map[isa.Reg]uint64
	lineVis      map[uint64]uint64
	storesByLine map[uint64][]uint64
}

// SetReferenceStepping switches the core between the indexed fast path
// (default) and the straight-line reference scheduler. The two produce
// identical simulated timing; the reference exists so equivalence tests can
// diff them. Only valid while the core is quiescent (before Start, or
// between finished runs); switching drops scheduler-internal caches, never
// architectural state.
func (c *CPU) SetReferenceStepping(on bool) {
	if on == (c.ref != nil) {
		return
	}
	if c.robCount() > 0 || c.fetchQLen() > 0 || c.storeBufLen() > 0 ||
		(c.spEnabled && (len(c.epochs) > 0 || c.ssb.Len() > 0)) {
		panic("cpu: SetReferenceStepping while the pipeline is busy")
	}
	if !on {
		c.ref = nil
		return
	}
	c.ref = &refSched{
		pendingReg:   make(map[isa.Reg]uint64),
		lineVis:      make(map[uint64]uint64),
		storesByLine: make(map[uint64][]uint64),
	}
	// The fast path's bulk fetch is disabled in reference mode; re-bind an
	// already-started source to the per-instruction path.
	c.bsrc = nil
	c.blk = nil
	c.blkPos, c.blkSub = 0, 0
}

// refStep is Step under the reference scheduler.
func (c *CPU) refStep() bool {
	if c.finished() {
		return false
	}
	if c.cycleHook != nil {
		c.cycleHook(c)
	}
	progress := false
	progress = c.refRetire() || progress
	progress = c.commitEngineStep() || progress
	progress = c.drainStoreBuffer() || progress
	progress = c.refIssue() || progress
	progress = c.refDispatch() || progress
	progress = c.refFetch() || progress
	if progress {
		c.now++
		c.idleSteps = 0
		return true
	}
	c.now = c.refNextEvent()
	if c.idleSteps++; c.idleSteps > 1<<24 {
		panic("cpu: pipeline deadlock (no progress for 16M events)")
	}
	return true
}

// refNextEvent returns the earliest future cycle at which progress can
// resume, by rescanning every ROB entry.
func (c *CPU) refNextEvent() uint64 {
	next := uint64(1<<63 - 1)
	consider := func(t uint64) {
		if t > c.now && t < next {
			next = t
		}
	}
	window := c.cfg.IssueWindow
	for i := range c.ref.rob {
		e := &c.ref.rob[i]
		if e.done != notIssued {
			consider(e.done)
			continue
		}
		if window == 0 {
			continue
		}
		window--
		consider(c.refReadyAt(e.in))
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

// refReadyAt returns the cycle an instruction's source operands are ready.
func (c *CPU) refReadyAt(in isa.Instr) uint64 {
	t := c.now
	for _, src := range []isa.Reg{in.Src1, in.Src2} {
		if src == isa.NoReg {
			continue
		}
		if r, ok := c.ref.pendingReg[src]; ok && r > t {
			t = r
		}
	}
	return t
}

// refFetch pulls up to FetchWidth instructions into the fetch queue.
func (c *CPU) refFetch() bool {
	if c.srcDone {
		return false
	}
	if len(c.ref.fetchQ) >= c.cfg.FetchQ {
		c.stats.FetchQStallCycles++
		return false
	}
	fetched := false
	for i := 0; i < c.cfg.FetchWidth && len(c.ref.fetchQ) < c.cfg.FetchQ; i++ {
		in, ok := c.src.Next()
		if !ok {
			c.srcDone = true
			break
		}
		c.fetchPos++
		c.ref.fetchQ = append(c.ref.fetchQ, in)
		fetched = true
	}
	return fetched
}

// refDispatch moves instructions from the fetch queue into the ROB.
func (c *CPU) refDispatch() bool {
	moved := false
	for i := 0; i < c.cfg.IssueWidth && len(c.ref.fetchQ) > 0; i++ {
		if len(c.ref.rob) >= c.cfg.ROB || c.unissued >= c.cfg.IssueQ {
			break
		}
		in := c.ref.fetchQ[0]
		if in.Op.IsMemAccess() && c.lsqCount >= c.cfg.LSQ {
			break
		}
		c.ref.fetchQ = c.ref.fetchQ[1:]
		if in.Op.IsMemAccess() {
			c.lsqCount++
		}
		if in.Dst != isa.NoReg {
			c.ref.pendingReg[in.Dst] = regUnknown
		}
		c.seq++
		if in.Op == isa.Store {
			line := mem.LineAddr(in.Addr)
			c.ref.storesByLine[line] = append(c.ref.storesByLine[line], c.seq)
		}
		c.ref.rob = append(c.ref.rob, refRobEntry{in: in, seq: c.seq, done: notIssued})
		c.unissued++
		moved = true
	}
	return moved
}

// refMemReady reports whether a load at the given dispatch sequence may
// access memory: no older store to the same line may still be in the ROB.
func (c *CPU) refMemReady(seq uint64, addr uint64) bool {
	list := c.ref.storesByLine[mem.LineAddr(addr)]
	return len(list) == 0 || list[0] >= seq
}

// refIssue executes up to IssueWidth ready instructions from the scheduler
// window (oldest first), re-deriving readiness from the maps every cycle.
func (c *CPU) refIssue() bool {
	issued := 0
	examined := 0
	for i := range c.ref.rob {
		if issued >= c.cfg.IssueWidth || examined >= c.cfg.IssueWindow {
			break
		}
		e := &c.ref.rob[i]
		if e.done != notIssued {
			continue
		}
		examined++
		if c.refReadyAt(e.in) > c.now {
			continue
		}
		if e.in.Op == isa.Load && !c.refMemReady(e.seq, e.in.Addr) {
			continue
		}
		e.done = c.computeDone(e.in)
		if e.in.Dst != isa.NoReg {
			c.ref.pendingReg[e.in.Dst] = e.done
		}
		c.unissued--
		issued++
	}
	return issued > 0
}

// refRetire commits up to RetireWidth instructions in order.
func (c *CPU) refRetire() bool {
	retired := 0
	blocked := false
	for retired < c.cfg.RetireWidth && len(c.ref.rob) > 0 {
		e := &c.ref.rob[0]
		if e.done == notIssued || e.done > c.now {
			break
		}
		c.lastStall = nil
		if !c.retireOne(e.in) {
			blocked = true
			break // structural or ordering stall at the head
		}
		if e.in.Dst != isa.NoReg {
			delete(c.ref.pendingReg, e.in.Dst)
		}
		if e.in.Op.IsMemAccess() {
			c.lsqCount--
		}
		if e.in.Op == isa.Store {
			line := mem.LineAddr(e.in.Addr)
			list := c.ref.storesByLine[line]
			if len(list) == 0 || list[0] != e.seq {
				panic("cpu: store retirement out of line order")
			}
			if len(list) == 1 {
				delete(c.ref.storesByLine, line)
			} else {
				c.ref.storesByLine[line] = list[1:]
			}
		}
		c.ref.rob = c.ref.rob[1:]
		c.stats.Committed++
		retired++
	}
	if blocked && c.lastStall != nil {
		*c.lastStall++
	}
	return retired > 0
}
