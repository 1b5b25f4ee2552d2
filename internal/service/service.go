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
	"math/rand"

	"specpersist/internal/core"
	"specpersist/internal/hist"
	"specpersist/internal/multicore"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/sched"
	"specpersist/internal/txn"
)

// Histogram aliases the shared log-bucketed latency histogram
// (internal/hist), keeping service result types and their JSON shape
// stable across the extraction.
type Histogram = hist.Histogram

// QuantileRelError re-exports the histogram's proven quantile error bound.
const QuantileRelError = hist.QuantileRelError

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

// Config parameterizes one storage-server simulation.
type Config struct {
	// Structure names the served data structure (pstruct.Names(); "" = HM).
	Structure string `json:"structure"`
	// Variant is the software/hardware configuration: Log+P, Log+P+Sf or
	// SP. Base and Log are rejected — without persistence instructions a
	// request never commits durably, so "latency to durable commit" is
	// undefined.
	Variant core.Variant `json:"variant"`
	// Cores is the shard count (requests hash to shards by key).
	Cores int `json:"cores"`
	// Rate is the offered load in requests per million cycles, across all
	// shards.
	Rate float64 `json:"rate"`
	// Process selects the arrival process ("" = Poisson).
	Process Process `json:"process"`
	// BurstOnFrac is the ON fraction of each burst period (Bursty only).
	BurstOnFrac float64 `json:"burst_on_frac,omitempty"`
	// BurstPeriod is the ON+OFF cycle length (Bursty only).
	BurstPeriod uint64 `json:"burst_period,omitempty"`
	// Requests is the total number of offered requests.
	Requests int `json:"requests"`
	// Warmup functionally populates each shard's structure before the
	// measured phase.
	Warmup int `json:"warmup"`
	// QueueCap bounds each shard's FIFO; arrivals beyond it are dropped.
	QueueCap int `json:"queue_cap"`
	// BatchMax is the group-commit limit K: within an admission run,
	// consecutive requests form commit groups of up to K, and each group
	// commits behind one persist-barrier trio. K = 1 disables grouping
	// (every request keeps its own 4 barriers).
	BatchMax int `json:"batch_max"`
	// BatchDeadline is how many cycles an idle shard's queue head waits
	// for co-batching before a run starts with fewer than K requests
	// queued.
	BatchDeadline uint64 `json:"batch_deadline"`
	// GetFrac is the fraction of requests that are read-only gets
	// (structure search, no transaction).
	GetFrac float64 `json:"get_frac"`
	// Keyspace bounds request keys.
	Keyspace int `json:"keyspace"`
	// OpOverhead is the dependent-ALU application preamble per request
	// (0 = default, negative = none).
	OpOverhead int `json:"op_overhead"`
	// LogCap sizes each shard's undo log (0 = structure default).
	LogCap int `json:"log_cap,omitempty"`
	// Seed drives arrivals, keys and the get/update mix.
	Seed int64 `json:"seed"`
	// SSBEntries overrides the SP store-buffer size (0 = default).
	SSBEntries int `json:"ssb_entries,omitempty"`
	// Timeline, when non-nil, records batch spans, queue depth and drops
	// on the service track (plus every component's events).
	Timeline *obs.Timeline `json:"-"`
}

// DefaultConfig returns a harness-scale single-shard SP server.
func DefaultConfig() Config {
	return Config{
		Structure: "HM",
		Variant:   core.VariantSP,
		Cores:     1,
		Rate:      50,
		Process:   Poisson,
		Requests:  256,
		Warmup:    128,
		QueueCap:  64,
		BatchMax:  1,
		GetFrac:   0.25,
		Keyspace:  128,
		Seed:      1,
	}
}

// defaultOpOverhead is the per-request application preamble (parsing,
// allocation, call frames) at harness scale, matching the multicore
// harness's calibration: long enough that barriers overlap real work.
const defaultOpOverhead = 200

// shardRegionLines displaces each shard's allocations into a private
// 64 MiB window, so no line is ever shared between shards.
const shardRegionLines = 1 << 20

// withDefaults resolves zero-valued knobs.
func (c Config) withDefaults() Config {
	if c.Structure == "" {
		c.Structure = "HM"
	}
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
	if c.Requests == 0 {
		c.Requests = 256
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.BatchMax == 0 {
		c.BatchMax = 1
	}
	if c.Keyspace == 0 {
		c.Keyspace = 128
	}
	if c.OpOverhead == 0 {
		c.OpOverhead = defaultOpOverhead
	}
	if c.LogCap == 0 {
		c.LogCap = DefaultLogCap(c.Structure)
	}
	return c
}

// Validate rejects configurations the engine would mis-simulate. It runs
// on the defaults-resolved form, so a zero value in an optional knob is
// never an error.
func (c Config) Validate() error {
	d := c.withDefaults()
	if !(c.Rate > 0) {
		return fmt.Errorf("service: arrival rate must be positive, got %g req/Mcycle", c.Rate)
	}
	switch d.Variant {
	case core.VariantLogP, core.VariantLogPSf, core.VariantSP:
	default:
		return fmt.Errorf("service: variant %s has no durable commit; use Log+P, Log+P+Sf or SP", d.Variant)
	}
	valid := false
	for _, n := range pstruct.AllNames() {
		if n == d.Structure {
			valid = true
		}
	}
	if !valid {
		return fmt.Errorf("service: unknown structure %q (valid: %v)", d.Structure, pstruct.AllNames())
	}
	if d.Cores < 1 {
		return fmt.Errorf("service: core count must be at least 1, got %d", d.Cores)
	}
	if d.Process != Poisson && d.Process != Bursty {
		return fmt.Errorf("service: unknown arrival process %q (valid: %s, %s)", d.Process, Poisson, Bursty)
	}
	if d.BurstOnFrac <= 0 || d.BurstOnFrac > 1 {
		return fmt.Errorf("service: burst ON fraction must be in (0,1], got %g", d.BurstOnFrac)
	}
	if d.Requests < 1 {
		return fmt.Errorf("service: request count must be positive, got %d", d.Requests)
	}
	if d.QueueCap < 1 {
		return fmt.Errorf("service: queue capacity must be at least 1, got %d", d.QueueCap)
	}
	if d.BatchMax < 1 {
		return fmt.Errorf("service: group-commit batch size must be at least 1, got %d", d.BatchMax)
	}
	if d.GetFrac < 0 || d.GetFrac > 1 {
		return fmt.Errorf("service: get fraction must be in [0,1], got %g", d.GetFrac)
	}
	if d.Keyspace < 1 {
		return fmt.Errorf("service: keyspace must be positive, got %d", d.Keyspace)
	}
	if d.Warmup < 0 {
		return fmt.Errorf("service: warmup must be non-negative, got %d", d.Warmup)
	}
	if d.SSBEntries < 0 {
		return fmt.Errorf("service: SSB size must be non-negative, got %d", d.SSBEntries)
	}
	if d.LogCap < 0 {
		return fmt.Errorf("service: log capacity must be non-negative, got %d", d.LogCap)
	}
	return nil
}

// request is one offered operation.
type request struct {
	at    uint64 // arrival cycle
	key   uint64
	get   bool
	shard int
}

// splitmix64 spreads keys across shards (SplitMix64 finalizer).
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// genArrivals materializes the seeded open-loop request schedule. The
// per-request draw order (gap, key, class) is fixed, so one seed produces
// one schedule regardless of every other knob.
func genArrivals(c Config) []request {
	rng := rand.New(rand.NewSource(c.Seed))
	perCycle := c.Rate / 1e6
	onLen := float64(c.BurstPeriod) * c.BurstOnFrac
	reqs := make([]request, c.Requests)
	t := 0.0 // Poisson: wall clock; Bursty: accumulated ON-time
	for i := range reqs {
		gap := rng.ExpFloat64()
		var at uint64
		switch c.Process {
		case Bursty:
			t += gap / (perCycle / c.BurstOnFrac)
			k := uint64(t / onLen)
			at = k*c.BurstPeriod + uint64(t-float64(k)*onLen)
		default:
			t += gap / perCycle
			at = uint64(t)
		}
		key := uint64(rng.Intn(c.Keyspace))
		get := rng.Float64() < c.GetFrac
		reqs[i] = request{at: at, key: key, get: get, shard: int(splitmix64(key) % uint64(c.Cores))}
	}
	return reqs
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
	Hist Histogram `json:"hist"`
	P50  uint64    `json:"p50"`
	P95  uint64    `json:"p95"`
	P99  uint64    `json:"p99"`
	P999 uint64    `json:"p999"`
	Mean float64   `json:"mean"`

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
	queue []request

	// inflight holds the admitted groups of the current run in program
	// order, popped as their sentinels commit.
	inflight [][]request

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
	hist   Histogram
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

	opts := core.DefaultOptions().For(cfg.Variant)
	if cfg.SSBEntries > 0 && opts.CPU.SP.Enabled {
		opts.CPU.SP.SSBEntries = cfg.SSBEntries
	}
	sim := multicore.New(multicore.Config{Cores: cfg.Cores, Options: opts, Timeline: cfg.Timeline})
	if debugRefStepping {
		for k := 0; k < cfg.Cores; k++ {
			sim.Core(k).SetReferenceStepping(true)
		}
	}
	s := &server{cfg: cfg, sim: sim, tl: cfg.Timeline, reg: obs.NewRegistry()}
	s.registerCounters()

	for k := 0; k < cfg.Cores; k++ {
		sh, err := buildShard(cfg, k, sim.Registry(k))
		if err != nil {
			return Result{}, err
		}
		s.shards = append(s.shards, sh)
		k := k
		sh.be.BindSentinel(sim, k, func() { s.completeGroup(sh, k) })
	}

	if err := s.loop(genArrivals(cfg)); err != nil {
		return Result{}, err
	}

	for k, sh := range s.shards {
		if err := sh.be.St.Check(); err != nil {
			return Result{}, fmt.Errorf("service: shard %d after run: %w", k, err)
		}
		s.stats.CoalescedBarriers += sh.be.Env.DeferredBarriers()
		s.stats.Pcommits += sh.be.ServingPcommits()
	}

	return s.result(), nil
}

// MustRun is Run panicking on error (experiment drivers).
func MustRun(cfg Config) Result {
	r, err := Run(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// buildShard constructs shard k: a Backend displaced into window k so no
// line is ever shared across cores (coherence probes always miss).
func buildShard(cfg Config, k int, reg *obs.Registry) (*shard, error) {
	be, err := NewBackend(BackendConfig{
		Structure: cfg.Structure,
		Level:     cfg.Variant.Level(),
		Warmup:    cfg.Warmup,
		Keyspace:  cfg.Keyspace,
		LogCap:    cfg.LogCap,
		Seed:      cfg.Seed + int64(k)*7919 + 1,
		Coalesce:  cfg.BatchMax > 1,
	}, k, reg)
	if err != nil {
		return nil, fmt.Errorf("service: shard %d: %w", k, err)
	}
	return &shard{be: be}, nil
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
func (s *server) loop(arrivals []request) error {
	idx := 0
	var p sched.Pick
	for {
		p.Reset()
		if idx < len(arrivals) {
			p.Add(sched.Key{T: arrivals[idx].at, Kind: evArrival, Idx: -1})
		}
		for k, sh := range s.shards {
			if sh.busy {
				p.Add(sched.Key{T: s.sim.Core(k).Now(), Kind: evStep, Idx: k})
			} else if len(sh.queue) > 0 {
				q := sh.queue
				t := GroupStart(s.sim.Core(k).Now(), len(q), s.cfg.BatchMax, q[0].at, q[len(q)-1].at, s.cfg.BatchDeadline)
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
func (s *server) arrive(r request) {
	s.stats.Offered++
	sh := s.shards[r.shard]
	if len(sh.queue) >= s.cfg.QueueCap {
		s.stats.Dropped++
		if r.at > s.stats.SpanCycles {
			s.stats.SpanCycles = r.at
		}
		s.tl.Instant(obs.TrackService, "service.drop", r.at)
		return
	}
	s.noteDepth(sh, r.at)
	sh.queue = append(sh.queue, r)
	s.stats.Admitted++
	if len(sh.queue) > s.stats.MaxQueueDepth {
		s.stats.MaxQueueDepth = len(sh.queue)
	}
	s.tl.Count(obs.TrackService, "service.queue_depth", r.at, uint64(len(sh.queue)))
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

	sh.be.BeginRun()
	for len(run) > 0 {
		n := len(run)
		if n > s.cfg.BatchMax {
			n = s.cfg.BatchMax
		}
		group := run[:n]
		run = run[n:]
		ops := make([]Op, len(group))
		for i, r := range group {
			ops[i] = Op{Key: r.key, Get: r.get}
		}
		sh.be.AppendGroup(ops, s.cfg.OpOverhead)
		sh.inflight = append(sh.inflight, group)
		s.stats.Batches++
		if n > 1 {
			s.stats.GroupedRequests += uint64(n)
		}
	}
	sh.be.EndRun()

	s.sim.Core(k).AdvanceTo(t)
	s.sim.StartCore(k, &sh.be.Buf)
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
			debugCompletions(k, i, r.at, done)
		}
		if done < r.at {
			s.err = fmt.Errorf("service: shard %d request completed at %d before its arrival %d", k, done, r.at)
			return
		}
		s.hist.Observe(done - r.at)
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
