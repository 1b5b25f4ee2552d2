package memctl

import (
	"testing"
	"testing/quick"
)

func testCfg() Config {
	return Config{Banks: 2, ReadLat: 100, WriteLat: 300, WPQCap: 4, AckLat: 5}
}

func TestReadLatency(t *testing.T) {
	c := New(testCfg())
	if got := c.Read(0, 10); got != 10+100+5 {
		t.Errorf("idle read done = %d, want 115", got)
	}
}

func TestBankContentionSerializesReads(t *testing.T) {
	c := New(testCfg())
	// Same bank (addr 0 and addr 2*64 with 2 banks).
	first := c.Read(0, 0)
	second := c.Read(128, 0)
	if second != first+100 {
		t.Errorf("same-bank reads: first=%d second=%d", first, second)
	}
	// Different bank proceeds in parallel.
	third := c.Read(64, 0)
	if third != 105 {
		t.Errorf("other-bank read done = %d, want 105", third)
	}
}

func TestWriteAckIsAcceptanceNotDrain(t *testing.T) {
	c := New(testCfg())
	ack := c.EnqueueWrite(0, 0)
	if ack != 5 {
		t.Errorf("write ack = %d, want 5 (acceptance + ack latency)", ack)
	}
	// The drain itself takes WriteLat.
	if done := c.Pcommit(0); done != 300+5 {
		t.Errorf("pcommit after one write = %d, want 305", done)
	}
}

func TestPcommitEmptyWPQIsFast(t *testing.T) {
	c := New(testCfg())
	if done := c.Pcommit(50); done != 55 {
		t.Errorf("empty pcommit done = %d, want 55", done)
	}
}

func TestPcommitCoversOnlyPriorWrites(t *testing.T) {
	c := New(testCfg())
	c.EnqueueWrite(0, 0) // drains at 300
	p := c.Pcommit(10)
	if p != 305 {
		t.Fatalf("pcommit = %d, want 305", p)
	}
	// A write enqueued later must not extend an earlier pcommit.
	c.EnqueueWrite(64, 20)
	if p2 := c.Pcommit(10); p2 != 305 {
		t.Errorf("pcommit at 10 after later write = %d, want 305", p2)
	}
}

func TestPcommitWaitsForSlowestBank(t *testing.T) {
	c := New(testCfg())
	c.EnqueueWrite(0, 0)   // bank 0: done 300
	c.EnqueueWrite(128, 0) // bank 0 again: done 600
	c.EnqueueWrite(64, 0)  // bank 1: done 300
	if p := c.Pcommit(0); p != 605 {
		t.Errorf("pcommit = %d, want 605", p)
	}
}

func TestWPQCapacityStalls(t *testing.T) {
	c := New(testCfg()) // cap 4
	for i := 0; i < 4; i++ {
		c.EnqueueWrite(uint64(i*64), 0)
	}
	// Bank 0 entries drain at 300, 600; bank 1 at 300, 600.
	ack := c.EnqueueWrite(4*64, 0)
	if ack <= 5 {
		t.Errorf("5th write accepted immediately (ack %d) despite full WPQ", ack)
	}
	// First slot frees at 300 (two entries drain then).
	if ack != 300+5 {
		t.Errorf("5th write ack = %d, want 305", ack)
	}
	if st := c.Stats(); st.WPQStalls != 1 || st.WPQMax != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestStatsCounts(t *testing.T) {
	c := New(testCfg())
	c.Read(0, 0)
	c.EnqueueWrite(0, 0)
	c.Pcommit(0)
	st := c.Stats()
	if st.Reads != 1 || st.Writes != 1 || st.Pcommits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{{Banks: 0, WPQCap: 4}, {Banks: 4, WPQCap: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			New(cfg)
		}()
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	// 50 ns / 150 ns at 2.1 GHz.
	if cfg.ReadLat != 105 || cfg.WriteLat != 315 {
		t.Errorf("latencies = %d/%d, want 105/315", cfg.ReadLat, cfg.WriteLat)
	}
}

// Property: completion times never precede issue time plus minimum service
// latency, and pcommit never completes before the writes it covers.
func TestQuickMonotonicity(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(testCfg())
		now := uint64(0)
		var lastWriteDrain uint64
		for _, op := range ops {
			now += uint64(op % 50)
			addr := uint64(op) * 64
			switch op % 3 {
			case 0:
				if done := c.Read(addr, now); done < now+c.cfg.ReadLat {
					return false
				}
			case 1:
				if ack := c.EnqueueWrite(addr, now); ack < now+c.cfg.AckLat {
					return false
				}
				lastWriteDrain = now + c.cfg.WriteLat // lower bound
			case 2:
				done := c.Pcommit(now)
				if done < now+c.cfg.AckLat {
					return false
				}
				_ = lastWriteDrain
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
