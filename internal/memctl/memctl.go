// Package memctl models the NVMM memory controller: banked non-volatile
// memory with asymmetric read/write latencies behind a volatile
// write-pending queue (WPQ).
//
// The controller is analytic rather than cycle-stepped: each request
// computes its completion time from bank availability, which is exact as
// long as requests arrive in non-decreasing time order (the CPU model
// advances monotonically).
//
// pcommit semantics follow the paper (§2.2): the controller flushes all
// writes pending at the time the pcommit is issued and acknowledges the
// core once the last of them is durable. Writes enqueued after the pcommit
// was issued are not covered by it.
package memctl

import (
	"sort"

	"specpersist/internal/mem"
	"specpersist/internal/obs"
)

// Config holds the controller and NVMM timing parameters. The defaults
// correspond to the paper's Table 2 at 2.1 GHz: 50 ns reads (105 cycles)
// and 150 ns writes (315 cycles).
type Config struct {
	Banks    int    // interleaved NVMM banks
	ReadLat  uint64 // cycles a bank is busy serving a read
	WriteLat uint64 // cycles a bank is busy draining a write
	WPQCap   int    // write-pending queue entries
	AckLat   uint64 // controller-to-core acknowledgement latency
}

// DefaultConfig returns the paper's baseline controller configuration.
func DefaultConfig() Config {
	// The paper does not specify bank parallelism; 16 banks keeps NVMM
	// write bandwidth from becoming the artificial bottleneck at harness
	// scales, matching the paper's operating point where PMEM
	// instructions alone add little overhead (Figure 8, Log+P vs Log).
	return Config{Banks: 16, ReadLat: 105, WriteLat: 315, WPQCap: 64, AckLat: 5}
}

// Stats counts controller events.
type Stats struct {
	Reads      uint64
	Writes     uint64
	Coalesced  uint64 // writes merged into a pending same-line WPQ entry
	Pcommits   uint64
	WPQMax     int    // WPQ occupancy high-water mark
	WPQStalls  uint64 // writes delayed waiting for a WPQ slot
	DrainedMax uint64 // latest drain completion scheduled (cycles)
}

type wpqEntry struct {
	line  uint64 // line address (coalescing key)
	enq   uint64 // cycle the entry was accepted into the WPQ
	start uint64 // cycle its NVMM bank write begins
	done  uint64 // cycle its NVMM write completes
}

// Controller is a single NVMM memory controller.
//
// Reads and writes are tracked on separate per-bank ports: the controller
// prioritizes demand reads, and the WPQ exists precisely to keep write
// drains off the read path. Writes serialize against other writes to the
// same bank; reads against other reads.
type Controller struct {
	cfg       Config
	readFree  []uint64
	writeFree []uint64
	pending   []wpqEntry
	stats     Stats
	tl        *obs.Timeline
}

// New returns a controller with the given configuration.
func New(cfg Config) *Controller {
	if cfg.Banks <= 0 || cfg.WPQCap <= 0 {
		panic("memctl: banks and WPQ capacity must be positive")
	}
	c := &Controller{
		cfg:       cfg,
		readFree:  make([]uint64, cfg.Banks),
		writeFree: make([]uint64, cfg.Banks),
	}
	c.Reset()
	return c
}

// Reset returns the controller to the state New left it in: idle banks,
// an empty WPQ, zero counters and no timeline, keeping its storage.
func (c *Controller) Reset() {
	clear(c.readFree)
	clear(c.writeFree)
	*c = Controller{cfg: c.cfg, readFree: c.readFree, writeFree: c.writeFree, pending: c.pending[:0]}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

func (c *Controller) bank(addr uint64) int {
	return int((addr / mem.LineSize) % uint64(c.cfg.Banks))
}

// prune drops WPQ entries whose NVMM write has completed by now.
func (c *Controller) prune(now uint64) {
	keep := c.pending[:0]
	for _, e := range c.pending {
		if e.done > now {
			keep = append(keep, e)
		}
	}
	c.pending = keep
}

// Read serves a line read issued at now and returns the cycle the data is
// back at the requester.
func (c *Controller) Read(addr uint64, now uint64) uint64 {
	c.stats.Reads++
	b := c.bank(addr)
	start := max(now, c.readFree[b])
	done := start + c.cfg.ReadLat
	c.readFree[b] = done
	return done + c.cfg.AckLat
}

// EnqueueWrite accepts a line writeback issued at now (a clwb/clflushopt
// writeback or a dirty eviction). It returns the cycle the requester
// receives the acceptance acknowledgement — the point at which a clwb
// becomes globally visible (§5.1).
func (c *Controller) EnqueueWrite(addr uint64, now uint64) uint64 {
	c.stats.Writes++
	c.prune(now)
	line := addr / mem.LineSize * mem.LineSize
	// Write coalescing (§2.2): a write to a line already pending in the
	// WPQ whose NVMM write has not begun merges into that entry.
	for _, e := range c.pending {
		if e.line == line && e.start > now {
			c.stats.Coalesced++
			return now + c.cfg.AckLat
		}
	}
	accept := now
	if len(c.pending) >= c.cfg.WPQCap {
		// Wait for the k-th oldest completion to free a slot.
		c.stats.WPQStalls++
		dones := make([]uint64, len(c.pending))
		for i, e := range c.pending {
			dones[i] = e.done
		}
		sort.Slice(dones, func(i, j int) bool { return dones[i] < dones[j] })
		accept = dones[len(dones)-c.cfg.WPQCap]
		c.tl.Span(obs.TrackMemctl, "wpq.stall", now, accept)
		c.prune(accept)
	}
	b := c.bank(addr)
	start := max(accept, c.writeFree[b])
	done := start + c.cfg.WriteLat
	c.writeFree[b] = done
	c.pending = append(c.pending, wpqEntry{line: line, enq: accept, start: start, done: done})
	if len(c.pending) > c.stats.WPQMax {
		c.stats.WPQMax = len(c.pending)
		c.tl.Count(obs.TrackMemctl, "wpq.occupancy", accept, uint64(len(c.pending)))
	}
	if done > c.stats.DrainedMax {
		c.stats.DrainedMax = done
	}
	return accept + c.cfg.AckLat
}

// Pcommit issues a persist barrier at now: it returns the cycle the core
// receives the acknowledgement that every write pending at issue time has
// drained to NVMM.
func (c *Controller) Pcommit(now uint64) uint64 {
	c.stats.Pcommits++
	c.prune(now)
	done := now
	for _, e := range c.pending {
		if e.enq <= now && e.done > done {
			done = e.done
		}
	}
	return done + c.cfg.AckLat
}

// Stats returns a copy of the event counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetTimeline attaches an event recorder (nil disables recording). WPQ
// stalls appear as spans and occupancy high-waters as counter samples on
// the memctl track.
func (c *Controller) SetTimeline(tl *obs.Timeline) { c.tl = tl }

// Register publishes the controller's counters into the registry under the
// "mem." key space.
func (c *Controller) Register(r *obs.Registry) {
	registerMemory(r, c.Stats)
}

// registerMemory publishes one Memory implementation's aggregate counters.
func registerMemory(r *obs.Registry, stats func() Stats) {
	r.RegisterFunc("mem.reads", func() uint64 { return stats().Reads })
	r.RegisterFunc("mem.writes", func() uint64 { return stats().Writes })
	r.RegisterFunc("mem.coalesced", func() uint64 { return stats().Coalesced })
	r.RegisterFunc("mem.pcommits", func() uint64 { return stats().Pcommits })
	r.RegisterFunc("mem.wpq.max", func() uint64 { return uint64(stats().WPQMax) })
	r.RegisterFunc("mem.wpq.stalls", func() uint64 { return stats().WPQStalls })
}
