// Package service simulates a persistent-memory storage server on top of
// the timing core: a seeded open-loop arrival process offers keyed
// get/insert/delete requests against a persistent structure, requests wait
// in a bounded FIFO per shard, and an admission loop executes them on the
// simulated machine as failure-safe transactions — optionally coalescing a
// whole batch of requests behind one sfence–pcommit–sfence trio (group
// commit). Per-request latency, measured in cycles from arrival to durable
// commit, feeds a log-bucketed histogram with tail percentiles.
//
// The point of the layer is to turn the paper's microarchitectural claim
// (persist barriers are dead time on the critical path) into the metric a
// server operator sees: queueing delay and tail latency under offered
// load. It exposes both latency levers side by side — speculation (the SP
// variant hides barrier stalls in-window) and group commit (amortizes the
// ordering points across requests, the Loose-Ordering Consistency lever) —
// so cmd/figures -latency can plot throughput–latency curves for each and
// for their combination.
//
// Model shape:
//
//   - Shards are share-nothing: each core owns a private structure and undo
//     log in a displaced address window, and requests are hashed to shards
//     by key. Cores still share one memory controller (bandwidth couples
//     them), via the internal/multicore machine. Because no line is shared,
//     coherence probes between shards never hit a BLT.
//   - Serving is work-conserving: when a shard falls idle with requests
//     queued, it admits the whole queue as one run whose requests execute
//     back-to-back in a single trace. Within a run, requests are
//     partitioned into commit groups of up to BatchMax; with BatchMax > 1
//     each group's persist barriers coalesce into one trio at the group
//     boundary (group commit). This is where the two levers separate: on a
//     baseline core a run of n requests exposes all 4n barrier drains in
//     its latency, while an SP core overlaps each drain with the next
//     request's work and exposes only the tail.
//   - A request's completion is its durable-commit cycle, observed
//     directly: each commit group ends with a sentinel store to a
//     shard-private line, and the cycle that store actually reaches the
//     memory system — at retirement on a baseline core (after the final
//     barrier's fences), at epoch commit (after the barrier's drain) on an
//     SP core — completes the group. Runs are serial per shard; cross-run
//     pipelining is not modeled, which understates SP slightly.
//   - Everything is seeded and single-threaded per run: two runs of one
//     Config produce byte-identical results at any sweep worker count.
package service

import (
	"fmt"

	"specpersist/internal/hist"
	"specpersist/internal/multicore"
	"specpersist/internal/obs"
	"specpersist/internal/sched"
	"specpersist/internal/splitmix"
	"specpersist/internal/txn"
)

// Process names an arrival process.
type Process string

const (
	// Poisson draws exponential inter-arrival gaps at the configured rate.
	Poisson Process = "poisson"
	// Bursty is an on–off modulated Poisson process: arrivals concentrate
	// in ON windows covering BurstOnFrac of each BurstPeriod, at rate
	// Rate/BurstOnFrac, so the average offered load still matches Rate.
	Bursty Process = "bursty"
)

// Config parameterizes one storage-server simulation: the shared
// request knobs plus the server's shard count and arrival process.
type Config struct {
	Serving
	// Cores is the shard count (requests hash to shards by key).
	Cores int `json:"cores"`
	// Process selects the arrival process ("" = Poisson).
	Process Process `json:"process"`
	// BurstOnFrac is the ON fraction of each burst period (Bursty only).
	BurstOnFrac float64 `json:"burst_on_frac,omitempty"`
	// BurstPeriod is the ON+OFF cycle length (Bursty only).
	BurstPeriod uint64 `json:"burst_period,omitempty"`
}

// DefaultConfig returns a harness-scale single-shard SP server.
func DefaultConfig() Config {
	return Config{Serving: DefaultServing(), Cores: 1, Process: Poisson}
}

// shardRegionLines displaces each shard's allocations into a private
// 64 MiB window, so no line is ever shared between shards.
const shardRegionLines = 1 << 20

// withDefaults resolves zero-valued knobs.
func (c Config) withDefaults() Config {
	c.Serving = c.Serving.WithDefaults()
	if c.Cores == 0 {
		c.Cores = 1
	}
	if c.Process == "" {
		c.Process = Poisson
	}
	if c.BurstOnFrac == 0 {
		c.BurstOnFrac = 0.25
	}
	if c.BurstPeriod == 0 {
		c.BurstPeriod = 1 << 15
	}
	return c
}

// Validate rejects configurations the engine would mis-simulate. It runs
// on the defaults-resolved form, so a zero value in an optional knob is
// never an error.
func (c Config) Validate() error {
	if err := c.Serving.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	d := c.withDefaults()
	if d.Cores < 1 {
		return fmt.Errorf("service: core count must be at least 1, got %d", d.Cores)
	}
	if d.Process != Poisson && d.Process != Bursty {
		return fmt.Errorf("service: unknown arrival process %q (valid: %s, %s)", d.Process, Poisson, Bursty)
	}
	if d.BurstOnFrac <= 0 || d.BurstOnFrac > 1 {
		return fmt.Errorf("service: burst ON fraction must be in (0,1], got %g", d.BurstOnFrac)
	}
	return nil
}

// arrivals is the server's request schedule: the shared generator over
// uniform keys, on a Poisson or on-off modulated Poisson clock.
func (c Config) arrivals() []Arrival {
	clock := PoissonClock(c.Rate)
	if c.Process == Bursty {
		// The ON windows carry every arrival: t accumulates ON-time at
		// the rate that keeps the average offered load at Rate.
		onRate := c.Rate / 1e6 / c.BurstOnFrac
		onLen := float64(c.BurstPeriod) * c.BurstOnFrac
		t := 0.0
		clock = func(gap float64) uint64 {
			t += gap / onRate
			k := uint64(t / onLen)
			return k*c.BurstPeriod + uint64(t-float64(k)*onLen)
		}
	}
	return c.Serving.Arrivals(clock, nil)
}

// Stats aggregates the server-level counters.
type Stats struct {
	Offered           uint64 `json:"offered"`
	Dropped           uint64 `json:"dropped"`
	Admitted          uint64 `json:"admitted"`
	Completed         uint64 `json:"completed"`
	Runs              uint64 `json:"runs"`               // admission runs (busy periods begun)
	Batches           uint64 `json:"batches"`            // commit groups issued
	GroupedRequests   uint64 `json:"grouped_requests"`   // requests that shared a commit group
	CoalescedBarriers uint64 `json:"coalesced_barriers"` // persist trios elided by group commit
	Pcommits          uint64 `json:"pcommits"`           // serving-phase device pcommits (all shards, warmup excluded)
	MaxQueueDepth     int    `json:"max_queue_depth"`
	DepthCycles       uint64 `json:"depth_cycles"` // time-integral of queue depth
	SpanCycles        uint64 `json:"span_cycles"`  // last durable commit (or drop) cycle
}

// Result is the outcome of one service run.
type Result struct {
	Config  Config `json:"config"`
	Variant string `json:"variant"`
	Stats   Stats  `json:"stats"`

	// Latency distribution, arrival to durable commit, in cycles.
	Hist hist.Histogram `json:"hist"`
	P50  uint64         `json:"p50"`
	P95  uint64         `json:"p95"`
	P99  uint64         `json:"p99"`
	P999 uint64         `json:"p999"`
	Mean float64        `json:"mean"`

	// Throughput is the measured goodput in requests per million cycles.
	Throughput float64 `json:"throughput"`
	// AvgQueueDepth is the time-averaged FIFO depth.
	AvgQueueDepth float64 `json:"avg_queue_depth"`

	// Metrics is the unified snapshot: service.* counters, multicore.* and
	// shared-backend counters, plus per-shard counters under "coreN."
	// prefixes (cpu, cache, pmem, txn).
	Metrics obs.Snapshot `json:"metrics,omitempty"`
}

// shard is one serving core's harness-side state: an exported Backend
// (the machine-side building block shared with internal/cluster) plus the
// FIFO and in-flight bookkeeping of this layer's admission policy.
type shard struct {
	be    *Backend
	queue []Arrival

	// inflight holds the admitted groups of the current run in program
	// order, popped as their sentinels commit.
	inflight [][]Arrival

	busy     bool
	runStart uint64

	depthAt uint64 // cycle of the last depth change (area accounting)
}

// server is the simulation state for one Run.
type server struct {
	cfg    Config
	sim    *multicore.Sim
	shards []*shard
	tl     *obs.Timeline
	reg    *obs.Registry
	hist   hist.Histogram
	stats  Stats
	err    error // first accounting violation, checked by loop
}

// event kinds, in tie-break priority order at equal cycles: arrivals join
// queues before batches close over them, batch starts precede steps.
const (
	evArrival = iota
	evStart
	evStep
)

// Run simulates one server configuration to completion.
func Run(cfg Config) (_ Result, err error) {
	// A log capacity too small for an operation is the config's error.
	defer txn.RecoverCapacity(&err)
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg = cfg.withDefaults()

	sim := multicore.New(multicore.Config{Cores: cfg.Cores, Options: cfg.Machine(), Timeline: cfg.Timeline})
	if debugRefStepping {
		for k := 0; k < cfg.Cores; k++ {
			sim.Core(k).SetReferenceStepping(true)
		}
	}
	s := &server{cfg: cfg, sim: sim, tl: cfg.Timeline, reg: obs.NewRegistry()}
	s.registerCounters()

	for k := 0; k < cfg.Cores; k++ {
		// Shard k's backend lives in window k, so no line is ever shared
		// across cores (coherence probes always miss).
		be, err := NewBackend(cfg.Serving, k, k, sim.Registry(k))
		if err != nil {
			return Result{}, fmt.Errorf("service: shard %d: %w", k, err)
		}
		sh := &shard{be: be}
		s.shards = append(s.shards, sh)
		k := k
		sh.be.BindSentinel(sim, k, func() { s.completeGroup(sh, k) })
	}

	if err := s.loop(cfg.arrivals()); err != nil {
		return Result{}, err
	}

	for k, sh := range s.shards {
		if err := sh.be.St.Check(); err != nil {
			return Result{}, fmt.Errorf("service: shard %d after run: %w", k, err)
		}
		s.stats.CoalescedBarriers += sh.be.Env.DeferredBarriers()
		s.stats.Pcommits += sh.be.servingPcommits()
	}

	return s.result(), nil
}

// registerCounters publishes the service.* key space.
func (s *server) registerCounters() {
	s.reg.RegisterFunc("service.offered", func() uint64 { return s.stats.Offered })
	s.reg.RegisterFunc("service.dropped", func() uint64 { return s.stats.Dropped })
	s.reg.RegisterFunc("service.admitted", func() uint64 { return s.stats.Admitted })
	s.reg.RegisterFunc("service.completed", func() uint64 { return s.stats.Completed })
	s.reg.RegisterFunc("service.runs", func() uint64 { return s.stats.Runs })
	s.reg.RegisterFunc("service.batches", func() uint64 { return s.stats.Batches })
	s.reg.RegisterFunc("service.grouped_requests", func() uint64 { return s.stats.GroupedRequests })
	s.reg.RegisterFunc("service.coalesced_barriers", func() uint64 { return s.stats.CoalescedBarriers })
	s.reg.RegisterFunc("service.pcommits", func() uint64 { return s.stats.Pcommits })
	s.reg.RegisterFunc("service.queue.max_depth", func() uint64 { return uint64(s.stats.MaxQueueDepth) })
	s.reg.RegisterFunc("service.queue.depth_cycles", func() uint64 { return s.stats.DepthCycles })
	s.reg.RegisterFunc("service.span_cycles", func() uint64 { return s.stats.SpanCycles })
	s.reg.RegisterFunc("service.latency.p50", func() uint64 { return s.hist.Quantile(0.50) })
	s.reg.RegisterFunc("service.latency.p95", func() uint64 { return s.hist.Quantile(0.95) })
	s.reg.RegisterFunc("service.latency.p99", func() uint64 { return s.hist.Quantile(0.99) })
	s.reg.RegisterFunc("service.latency.p999", func() uint64 { return s.hist.Quantile(0.999) })
	s.reg.RegisterFunc("service.latency.max", func() uint64 { return s.hist.Max })
}

// noteDepth accrues the queue-depth time integral up to cycle t.
func (s *server) noteDepth(sh *shard, t uint64) {
	if t > sh.depthAt {
		s.stats.DepthCycles += uint64(len(sh.queue)) * (t - sh.depthAt)
		sh.depthAt = t
	}
}

// loop is the deterministic scheduler: it always advances the globally
// earliest event (arrival < batch start < core step at equal cycles, then
// lowest shard index), which both fixes the interleaving and keeps the
// shared memory controller's request order near-monotonic, exactly like
// multicore.Sim.Run.
func (s *server) loop(arrivals []Arrival) error {
	idx := 0
	var p sched.Pick
	for {
		p.Reset()
		if idx < len(arrivals) {
			p.Add(sched.Key{T: arrivals[idx].At, Kind: evArrival, Idx: -1})
		}
		for k, sh := range s.shards {
			if sh.busy {
				p.Add(sched.Key{T: s.sim.Core(k).Now(), Kind: evStep, Idx: k})
			} else if len(sh.queue) > 0 {
				q := sh.queue
				t := GroupStart(s.sim.Core(k).Now(), len(q), s.cfg.BatchMax, q[0].At, q[len(q)-1].At, s.cfg.BatchDeadline)
				p.Add(sched.Key{T: t, Kind: evStart, Idx: k})
			}
		}
		if !p.Ok() {
			break
		}
		switch best := p.Best(); best.Kind {
		case evArrival:
			r := arrivals[idx]
			idx++
			s.arrive(r)
		case evStart:
			s.startRun(s.shards[best.Idx], best.Idx, best.T)
		case evStep:
			s.stepShard(s.shards[best.Idx], best.Idx, p.Next())
		}
		if s.err != nil {
			return s.err
		}
	}
	if s.stats.Completed+s.stats.Dropped != s.stats.Offered {
		return fmt.Errorf("service: request accounting broken: %d completed + %d dropped != %d offered",
			s.stats.Completed, s.stats.Dropped, s.stats.Offered)
	}
	return nil
}

// arrive offers one request to its shard's FIFO.
func (s *server) arrive(r Arrival) {
	s.stats.Offered++
	sh := s.shards[splitmix.Mix(r.Key)%uint64(len(s.shards))]
	if len(sh.queue) >= s.cfg.QueueCap {
		s.stats.Dropped++
		if r.At > s.stats.SpanCycles {
			s.stats.SpanCycles = r.At
		}
		s.tl.Instant(obs.TrackService, "service.drop", r.At)
		return
	}
	s.noteDepth(sh, r.At)
	sh.queue = append(sh.queue, r)
	s.stats.Admitted++
	if len(sh.queue) > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = len(sh.queue)
	}
	s.tl.Count(obs.TrackService, "service.queue_depth", r.At, uint64(len(sh.queue)))
}

// startRun admits the whole queue at cycle t as one back-to-back trace:
// per request an application preamble (dependent ALU chain) plus the
// structure operation, partitioned into commit groups of up to BatchMax.
// With BatchMax > 1 each group's persist barriers coalesce into one trio
// at the group boundary. Every group ends with a sentinel store whose
// commit event marks the group durable.
func (s *server) startRun(sh *shard, k int, t uint64) {
	s.noteDepth(sh, t)
	run := sh.queue
	sh.queue = nil
	s.tl.Count(obs.TrackService, "service.queue_depth", t, 0)
	s.stats.Runs++

	before := len(sh.inflight)
	sh.inflight = Admit(s.cfg.Serving, sh.be, s.sim, k, t, run, func(r Arrival) Op { return r.Op }, sh.inflight)
	for _, g := range sh.inflight[before:] {
		s.stats.Batches++
		if len(g) > 1 {
			s.stats.GroupedRequests += uint64(len(g))
		}
	}
	sh.busy = true
	sh.runStart = t
}

// completeGroup fires from core k's commit hook when a sentinel store
// reaches the memory system: the oldest in-flight group just became
// durable at the core's current cycle.
func (s *server) completeGroup(sh *shard, k int) {
	if len(sh.inflight) == 0 {
		s.err = fmt.Errorf("service: shard %d sentinel committed with no in-flight group", k)
		return
	}
	done := s.sim.Core(k).Now()
	group := sh.inflight[0]
	sh.inflight = sh.inflight[1:]
	for i, r := range group {
		if debugCompletions != nil {
			debugCompletions(k, i, r.At, done)
		}
		if done < r.At {
			s.err = fmt.Errorf("service: shard %d request completed at %d before its arrival %d", k, done, r.At)
			return
		}
		s.hist.Observe(done - r.At)
	}
	s.stats.Completed += uint64(len(group))
	if done > s.stats.SpanCycles {
		s.stats.SpanCycles = done
	}
	s.tl.Instant(obs.TrackService, "service.commit", done)
}

// stepShard advances one busy core; completions happen via the commit
// hook as sentinels drain, and the run ends when the core drains fully.
// The core steps in a batch while its event still orders before next, the
// runner-up of the scan. Every competing event time is frozen while this
// core runs (arrivals are precomputed, idle shards' start times depend
// only on their queue and their own clock, and other busy cores' clocks
// only increase), so re-scanning per step would pick this core again; the
// batch is exact, not approximate.
func (s *server) stepShard(sh *shard, k int, next sched.Key) {
	h := sched.Key{Kind: evStep, Idx: k}.Until(next)
	if s.sim.StepWhile(k, func() uint64 {
		if s.err != nil {
			return 0
		}
		return h
	}) {
		return
	}
	if len(sh.inflight) > 0 && s.err == nil {
		s.err = fmt.Errorf("service: shard %d drained with %d in-flight groups", k, len(sh.inflight))
	}
	s.tl.Span(obs.TrackService, "service.run", sh.runStart, s.sim.Core(k).Now())
	sh.busy = false
}

// result assembles the Result from the finished server.
func (s *server) result() Result {
	r := Result{
		Config:  s.cfg,
		Variant: s.cfg.Variant.String(),
		Stats:   s.stats,
		Hist:    s.hist,
		Mean:    s.hist.Mean(),
	}
	r.P50, r.P95, r.P99, r.P999 = s.hist.Percentiles()
	if s.stats.SpanCycles > 0 {
		r.Throughput = float64(s.stats.Completed) / float64(s.stats.SpanCycles) * 1e6
		r.AvgQueueDepth = float64(s.stats.DepthCycles) / float64(s.stats.SpanCycles)
	}
	m := s.reg.Snapshot()
	for k, v := range s.sim.Metrics() {
		m[k] = v
	}
	r.Metrics = m
	return r
}

// debugCompletions, when set by tests, observes every (arrival, done) pair.
var debugCompletions func(shard, reqID int, at, done uint64)

// debugRefStepping, when set by tests, switches every core to the CPU's
// reference (map-based) stepping mode before the run, so the
// stepping-equivalence suite can compare a whole service run against the
// production fast path.
var debugRefStepping bool
