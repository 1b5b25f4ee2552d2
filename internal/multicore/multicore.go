// Package multicore is the deterministic N-core conflict engine: it
// interleaves several cpu.CPU instances over a shared memory backend and
// turns each core's committed stores into coherence probes against every
// other core's BLT, so conflicting speculative epochs genuinely roll back
// (§4.2.2) instead of only under the fault harness's forced probe.
//
// Model shape and fidelity:
//
//   - Cores are stepped round-robin by earliest Now() (lowest index breaks
//     ties), which keeps the analytic memory controller's requirement that
//     requests arrive in non-decreasing time order while sharing one
//     controller (one WPQ, one pcommit drain domain) across all cores.
//   - Each core keeps a private cache hierarchy; sharing is modeled at the
//     backend plus a directory-style filter that forwards a committed
//     store's address only to cores currently speculating — exactly the
//     cores whose BLT could hit. Remote loads do not probe (write-invalidate
//     only), a simplification noted in EXPERIMENTS.md.
//   - A probe that hits a BLT while the target's oldest epoch is already
//     mid-commit cannot abort it (the drained SSB entries have reached the
//     memory system); the directory NACKs and retries the probe before the
//     target's next step, matching cpu.ProbeDeferred.
package multicore

import (
	"fmt"

	"specpersist/internal/cache"
	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/isa"
	"specpersist/internal/memctl"
	"specpersist/internal/obs"
	"specpersist/internal/sched"
	"specpersist/internal/trace"
)

// Config assembles an N-core machine. Every core gets an identical copy of
// Options (the single-core Table 2 machine, typically with SP hardware).
type Config struct {
	Cores   int
	Options core.Options
	// Timeline, when non-nil, records coherence probe events (and each
	// core's component events) for the whole machine.
	Timeline *obs.Timeline
}

// DefaultConfig returns a 2-core SP machine at the Table 2 design point.
func DefaultConfig() Config {
	return Config{Cores: 2, Options: core.DefaultOptions().For(core.VariantSP)}
}

// Stats aggregates the conflict engine's counters plus each core's stats.
type Stats struct {
	Probes         uint64 // store addresses offered to the directory filter
	Filtered       uint64 // probe deliveries skipped (target not speculating)
	Delivered      uint64 // probes delivered to a core's BLT
	Conflicts      uint64 // deliveries that hit a BLT (rollback or deferral)
	Deferred       uint64 // conflicts NACKed at least once (target mid-commit)
	Rollbacks      uint64 // conflicts that aborted speculation
	RollbackCycles uint64 // refill penalty cycles charged by those rollbacks

	PerCore []cpu.Stats
}

// deferredProbe is a NACKed conflict awaiting retry at its target.
type deferredProbe struct {
	addr    uint64
	firstAt uint64 // target-core cycle of the first (NACKed) delivery
}

// coreState is one simulated core plus its harness-side bookkeeping.
type coreState struct {
	cpu  *cpu.CPU
	h    *cache.Hierarchy
	reg  *obs.Registry
	src  trace.Source
	done bool

	// userCommit, when non-nil, observes the core's commit events after the
	// coherence probe logic ran (see OnCoreCommit).
	userCommit func(cpu.CommitEvent)

	deferred   []deferredProbe
	deferredAt map[uint64]struct{} // addrs present in deferred
}

// Sim is the N-core harness. Build with New, then either Run one trace
// source per core to completion or feed cores work in batches with
// StartCore and StepWhile. Sources must implement trace.Seeker (e.g.
// *trace.Buffer) for rollbacks to be possible.
type Sim struct {
	cfg   Config
	mc    memctl.Memory
	cores []*coreState
	tl    *obs.Timeline
	reg   *obs.Registry // multicore.* counters + shared backend

	stats Stats
}

// New assembles the machine: one shared memory controller, and per core a
// private cache hierarchy and CPU with its own metric registry. It builds
// the parts and resets them.
func New(cfg Config) *Sim {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("multicore: core count must be positive, got %d", cfg.Cores))
	}
	var mc memctl.Memory
	if cfg.Options.Controllers > 1 {
		mc = memctl.NewMulti(cfg.Options.Controllers, cfg.Options.Mem)
	} else {
		mc = memctl.New(cfg.Options.Mem)
	}
	s := &Sim{cfg: cfg, mc: mc, tl: cfg.Timeline, reg: obs.NewRegistry()}
	for i := 0; i < cfg.Cores; i++ {
		h := cache.New(cfg.Options.Cache, mc)
		c := cpu.New(cfg.Options.CPU, h, mc)
		reg := obs.NewRegistry()
		c.Register(reg)
		h.Register(reg)
		s.cores = append(s.cores, &coreState{cpu: c, h: h, reg: reg, deferredAt: make(map[uint64]struct{})})
	}
	mc.Register(s.reg)
	s.registerCounters()
	s.Reset()
	return s
}

// Reset returns the machine to the state New(cfg) left it in: the
// controller, each core's hierarchy and CPU, the conflict counters and
// pending probes, each keeping its storage. Sources, commit observers,
// injected probe campaigns and commit logs are dropped; a log already
// taken from a core stays its caller's. The registries are kept: the
// machine's own counters read zero again, and a counter a caller
// registered (Registry) still reads what it registered.
func (s *Sim) Reset() {
	s.mc.Reset()
	s.mc.SetTimeline(s.tl)
	s.stats = Stats{}
	for i, cs := range s.cores {
		cs.h.Reset()
		cs.cpu.Reset()
		cs.cpu.SetTimeline(s.tl)
		cs.src, cs.done, cs.userCommit, cs.deferred = nil, false, nil, nil
		clear(cs.deferredAt)
		// Each core's committed stores become probe traffic at every
		// other core (write-invalidate coherence at commit time).
		src, cs := i, cs
		cs.cpu.OnCommit(func(e cpu.CommitEvent) {
			if e.Op == isa.Store {
				s.probeFrom(src, e.Addr)
			}
			if cs.userCommit != nil {
				cs.userCommit(e)
			}
		})
	}
}

// OnCoreCommit installs fn to observe core i's commit events (a store or
// flush reaching the memory system, a pcommit issuing) without displacing
// the coherence probe hook; nil removes it. The service layer uses this to
// timestamp durable commits: a store drains at retirement on a baseline
// core but only at epoch commit — after the preceding barrier completed —
// on an SP core, so the event time is the durability point. Like
// cpu.OnCommit, fn must not re-enter the CPU.
func (s *Sim) OnCoreCommit(i int, fn func(cpu.CommitEvent)) { s.cores[i].userCommit = fn }

func (s *Sim) registerCounters() {
	s.reg.RegisterFunc("multicore.cores", func() uint64 { return uint64(len(s.cores)) })
	s.reg.RegisterFunc("multicore.probes", func() uint64 { return s.stats.Probes })
	s.reg.RegisterFunc("multicore.probes_filtered", func() uint64 { return s.stats.Filtered })
	s.reg.RegisterFunc("multicore.probes_delivered", func() uint64 { return s.stats.Delivered })
	s.reg.RegisterFunc("multicore.conflicts", func() uint64 { return s.stats.Conflicts })
	s.reg.RegisterFunc("multicore.deferred", func() uint64 { return s.stats.Deferred })
	s.reg.RegisterFunc("multicore.rollbacks", func() uint64 { return s.stats.Rollbacks })
	s.reg.RegisterFunc("multicore.rollback_cycles", func() uint64 { return s.stats.RollbackCycles })
}

// Cores returns the core count.
func (s *Sim) Cores() int { return len(s.cores) }

// Core returns core i's CPU (tests and the fault harness inspect it).
func (s *Sim) Core(i int) *cpu.CPU { return s.cores[i].cpu }

// Registry returns core i's metric registry, so callers can fold in the
// core's functional layers (pmem model, transaction manager) before Run.
func (s *Sim) Registry(i int) *obs.Registry { return s.cores[i].reg }

// probeFrom offers a committed store's address to every other core. The
// directory filter skips cores that are not speculating: their BLT cannot
// hit (cpu.Probe would report ProbeMiss), so the skip is lossless.
func (s *Sim) probeFrom(src int, addr uint64) {
	s.stats.Probes++
	for i, cs := range s.cores {
		if i == src || cs.done {
			continue
		}
		if !cs.cpu.Speculating() {
			s.stats.Filtered++
			continue
		}
		if _, pending := cs.deferredAt[addr]; pending {
			// An earlier probe for this line is already NACKed at this
			// core; the directory is still retrying it.
			continue
		}
		s.stats.Delivered++
		s.deliver(cs, addr, true)
	}
}

// deliver probes one core and books the outcome. first marks an original
// delivery (counts a conflict); retries of NACKed probes pass false.
func (s *Sim) deliver(cs *coreState, addr uint64, first bool) {
	switch cs.cpu.Probe(addr) {
	case cpu.ProbeMiss:
		// On first delivery: no conflict. On retry: the conflicting epoch
		// committed before the retry landed; the probe proceeds normally.
	case cpu.ProbeRollback:
		if first {
			s.stats.Conflicts++
		}
		s.stats.Rollbacks++
		s.stats.RollbackCycles += s.cfg.Options.CPU.RollbackPenalty
		s.tl.Instant(obs.TrackCoherence, "probe.rollback", cs.cpu.Now())
	case cpu.ProbeDeferred:
		if first {
			s.stats.Conflicts++
			s.stats.Deferred++
			s.tl.Instant(obs.TrackCoherence, "probe.nack", cs.cpu.Now())
		}
		cs.deferred = append(cs.deferred, deferredProbe{addr: addr, firstAt: cs.cpu.Now()})
		cs.deferredAt[addr] = struct{}{}
	}
}

// retryDeferred re-delivers NACKed probes before the core steps again.
func (s *Sim) retryDeferred(cs *coreState) {
	pending := cs.deferred
	cs.deferred = nil
	clear(cs.deferredAt)
	for _, p := range pending {
		s.tl.Span(obs.TrackCoherence, "probe.deferred", p.firstAt, cs.cpu.Now())
		s.deliver(cs, p.addr, false)
	}
}

// StartCore binds a trace source to core i and marks it runnable, for
// harnesses (internal/service) that feed cores work in batches instead of
// one trace per run. The caller owns the interleaving discipline: always
// step the globally earliest core so the shared controller sees requests
// in near-monotonic time order, exactly as Run does.
func (s *Sim) StartCore(i int, src trace.Source) {
	cs := s.cores[i]
	cs.src = src
	cs.cpu.Start(src)
	cs.done = false
}

// StepWhile is the schedulers' batch step: it advances core i, retrying
// any NACKed probes against it before each step, until the core drains
// (false) or its clock reaches horizon() (true) — the first cycle at which
// the caller would stop the core, asked again after each step. A step may
// cover several chain cycles (cpu.StepTo), never past the horizon and
// never while NACKed probes are pending: their retries must see every
// cycle. Probes still pending on a drained core resolve trivially: it is
// no longer speculating, so every retry would miss.
func (s *Sim) StepWhile(i int, horizon func() uint64) bool {
	cs := s.cores[i]
	h := horizon()
	for {
		limit := h
		if len(cs.deferred) > 0 {
			s.retryDeferred(cs)
			if len(cs.deferred) > 0 {
				limit = 0
			}
		}
		if !cs.cpu.StepTo(limit) {
			cs.done = true
			cs.deferred = nil
			clear(cs.deferredAt)
			return false
		}
		if h = horizon(); cs.cpu.Now() >= h {
			return true
		}
	}
}

// Run simulates every core to completion, interleaved by earliest Now()
// (ties go to the lowest core index — fully deterministic). srcs, when
// non-nil, binds one source per core first.
func (s *Sim) Run(srcs []trace.Source) Stats {
	if srcs != nil {
		if len(srcs) != len(s.cores) {
			panic(fmt.Sprintf("multicore: %d sources for %d cores", len(srcs), len(s.cores)))
		}
		for i, src := range srcs {
			s.cores[i].src = src
		}
	}
	for i, cs := range s.cores {
		if cs.src == nil {
			panic(fmt.Sprintf("multicore: core %d has no trace source", i))
		}
		cs.cpu.Start(cs.src)
		cs.done = false
	}
	// Other cores' clocks only ever increase while the pick steps (a
	// delivered probe can add a rollback penalty, never rewind), so the
	// runner-up found by one scan stays a safe batch limit.
	var p sched.Pick
	for {
		p.Reset()
		for i, cs := range s.cores {
			if !cs.done {
				p.Add(sched.Key{T: cs.cpu.Now(), Idx: i})
			}
		}
		if !p.Ok() {
			return s.Stats()
		}
		i := p.Best().Idx
		h := sched.Key{Idx: i}.Until(p.Next())
		s.StepWhile(i, func() uint64 { return h })
	}
}

// Stats returns the conflict-engine counters plus per-core CPU stats.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.PerCore = make([]cpu.Stats, len(s.cores))
	for i, cs := range s.cores {
		st.PerCore[i] = cs.cpu.Stats()
	}
	return st
}

// Metrics snapshots the whole machine: the shared backend and multicore.*
// counters under their canonical keys, and each core's counters prefixed
// "coreN." (e.g. "core0.cpu.sp.rollbacks").
func (s *Sim) Metrics() obs.Snapshot {
	out := s.reg.Snapshot()
	for i, cs := range s.cores {
		prefix := fmt.Sprintf("core%d.", i)
		for k, v := range cs.reg.Snapshot() {
			out[prefix+k] = v
		}
	}
	return out
}
