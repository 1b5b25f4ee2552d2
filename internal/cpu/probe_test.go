package cpu

import (
	"testing"

	"specpersist/internal/isa"
)

// TestProbeDeferredWhileHeadDraining pins the NACK half of the probe
// contract: once the oldest epoch has started draining SSB entries into
// the memory system, a conflicting coherence probe must be deferred
// (ProbeDeferred) rather than trigger a rollback — squashing at that
// point would re-execute stores the commit engine already made visible.
// Once the head epoch finishes committing, a retried probe that still
// conflicts rolls the core back for real.
func TestProbeDeferredWhileHeadDraining(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	tb := newB()
	// Several stores per epoch widen the drain window the test must catch.
	for e := 0; e < 3; e++ {
		base := uint64(0x1000 + e*0x1000)
		for s := 0; s < 6; s++ {
			tb.bld.Store(base+uint64(s)*64, 8, isa.NoReg, isa.NoReg)
		}
		tb.barrier(base)
	}
	tb.bld.Store(0x8000, 8, isa.NoReg, isa.NoReg)
	for i := 0; i < 800; i++ {
		tb.bld.ALU(0)
	}

	const conflictAddr = 0x8000
	c.Start(tb.buf)
	deferred, rolled := false, false
	for i := 0; i < 200000 && !c.finished(); i++ {
		if !deferred {
			// Wait for the moment the head epoch is mid-commit while the
			// conflicting address is speculative state.
			if c.speculating() && len(c.epochs) > 0 && c.epochs[0].draining &&
				c.blt.Conflicts(conflictAddr) {
				if got := c.Probe(conflictAddr); got != ProbeDeferred {
					t.Fatalf("Probe mid-drain = %v, want ProbeDeferred", got)
				}
				if c.Stats().Rollbacks != 0 {
					t.Fatal("deferred probe incremented Rollbacks")
				}
				if !c.speculating() {
					t.Fatal("deferred probe squashed speculation")
				}
				deferred = true
			}
		} else if !rolled {
			// Directory retry: once the head epoch is no longer draining,
			// the same conflicting probe must abort speculation.
			if c.speculating() && len(c.epochs) > 0 && !c.epochs[0].draining &&
				c.blt.Conflicts(conflictAddr) {
				if got := c.Probe(conflictAddr); got != ProbeRollback {
					t.Fatalf("retried Probe = %v, want ProbeRollback", got)
				}
				rolled = true
			}
		}
		c.Step()
	}
	if !deferred {
		t.Fatal("never observed a draining head epoch with the conflict in the BLT")
	}
	if !rolled {
		t.Fatal("retried probe never rolled back")
	}
	st := c.Stats()
	if st.Rollbacks != 1 {
		t.Errorf("Rollbacks = %d, want 1", st.Rollbacks)
	}
	if st.RollbackCycles != c.cfg.RollbackPenalty {
		t.Errorf("RollbackCycles = %d, want one penalty (%d)",
			st.RollbackCycles, c.cfg.RollbackPenalty)
	}
	if c.speculating() || c.ssb.Len() != 0 {
		t.Error("speculative state survived rollback")
	}
}

// TestProbeOnIdleCoreIsMiss pins the trivial outcomes of Probe.
func TestProbeOnIdleCoreIsMiss(t *testing.T) {
	c, _ := newSystem(DefaultSPConfig())
	if got := c.Probe(0x4000); got != ProbeMiss {
		t.Errorf("Probe on idle core = %v, want ProbeMiss", got)
	}
	cNoSP, _ := newSystem(SPConfig{})
	if got := cNoSP.Probe(0x4000); got != ProbeMiss {
		t.Errorf("Probe on non-SP core = %v, want ProbeMiss", got)
	}
}
