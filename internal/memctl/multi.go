package memctl

import (
	"specpersist/internal/mem"
	"specpersist/internal/obs"
)

// Memory is the controller interface the cache hierarchy and core drive.
// Both a single Controller and a Multi (several controllers with
// interleaved lines) implement it.
type Memory interface {
	// Read serves a line read issued at now; returns data-arrival cycle.
	Read(addr uint64, now uint64) uint64
	// EnqueueWrite accepts a line writeback; returns the acceptance-ack
	// cycle (clwb global visibility).
	EnqueueWrite(addr uint64, now uint64) uint64
	// Pcommit drains all writes pending at now; returns the cycle the
	// core has received acknowledgements from every controller (§2.2).
	Pcommit(now uint64) uint64
	// Stats returns aggregated controller counters.
	Stats() Stats
	// Register publishes the aggregate counters into an obs registry.
	Register(r *obs.Registry)
	// SetTimeline attaches an event recorder to every controller (nil
	// disables recording).
	SetTimeline(tl *obs.Timeline)
	// Reset returns every controller to the state its constructor left
	// it in.
	Reset()
}

var (
	_ Memory = (*Controller)(nil)
	_ Memory = (*Multi)(nil)
)

// Multi is a set of memory controllers with line-granular address
// interleaving. pcommit completes only when every controller has flushed
// its write-pending queue and acknowledged the core, exactly as the paper
// describes ("the processor has received acknowledgement from all memory
// controllers").
type Multi struct {
	ctrls []*Controller
}

// NewMulti builds n controllers, each with the per-controller cfg.
func NewMulti(n int, cfg Config) *Multi {
	if n <= 0 {
		panic("memctl: need at least one controller")
	}
	m := &Multi{ctrls: make([]*Controller, n)}
	for i := range m.ctrls {
		m.ctrls[i] = New(cfg)
	}
	return m
}

// Reset returns every controller to the state New left it in.
func (m *Multi) Reset() {
	for _, c := range m.ctrls {
		c.Reset()
	}
}

// Controllers returns the number of controllers.
func (m *Multi) Controllers() int { return len(m.ctrls) }

func (m *Multi) pick(addr uint64) *Controller {
	return m.ctrls[(addr/mem.LineSize)%uint64(len(m.ctrls))]
}

// Read serves a line read through the owning controller.
func (m *Multi) Read(addr uint64, now uint64) uint64 {
	return m.pick(addr).Read(addr, now)
}

// EnqueueWrite routes a writeback to the owning controller.
func (m *Multi) EnqueueWrite(addr uint64, now uint64) uint64 {
	return m.pick(addr).EnqueueWrite(addr, now)
}

// Pcommit broadcasts the barrier; completion is the slowest controller's
// acknowledgement.
func (m *Multi) Pcommit(now uint64) uint64 {
	done := now
	for _, c := range m.ctrls {
		if d := c.Pcommit(now); d > done {
			done = d
		}
	}
	return done
}

// Stats sums the per-controller counters (WPQMax reports the largest
// single-controller occupancy).
func (m *Multi) Stats() Stats {
	var s Stats
	for _, c := range m.ctrls {
		cs := c.Stats()
		s.Reads += cs.Reads
		s.Writes += cs.Writes
		s.Coalesced += cs.Coalesced
		s.Pcommits += cs.Pcommits
		s.WPQStalls += cs.WPQStalls
		if cs.WPQMax > s.WPQMax {
			s.WPQMax = cs.WPQMax
		}
		if cs.DrainedMax > s.DrainedMax {
			s.DrainedMax = cs.DrainedMax
		}
	}
	return s
}

// Register publishes the aggregated counters into the registry under the
// "mem." key space.
func (m *Multi) Register(r *obs.Registry) {
	registerMemory(r, m.Stats)
}

// SetTimeline attaches an event recorder to every controller.
func (m *Multi) SetTimeline(tl *obs.Timeline) {
	for _, c := range m.ctrls {
		c.SetTimeline(tl)
	}
}
