package service

import (
	"fmt"
	"math/rand"
	"slices"

	"specpersist/internal/core"
	"specpersist/internal/multicore"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
)

// Serving is the request side of a serving layer: the knobs, defaults and
// checks of one open-loop server's traffic, the machine it runs on, its
// arrival schedule, its backend and its admission step. Config embeds it
// for one storage server and internal/cluster's Config for every fleet
// node, so the two layers measure a request's durable commit the same way.
type Serving struct {
	// Structure names the served data structure (pstruct.AllNames(); "" = HM).
	Structure string `json:"structure"`
	// Variant is the machine: Log+P, Log+P+Sf or SP. Base and Log are
	// rejected — without persistence instructions a request never commits
	// durably, so "latency to durable commit" is undefined.
	Variant core.Variant `json:"variant"`
	// Rate is the offered load in requests per million cycles, across all
	// shards or nodes.
	Rate float64 `json:"rate"`
	// Requests is the total number of offered requests.
	Requests int `json:"requests"`
	// Warmup functionally populates each shard's or node's structure
	// before serving.
	Warmup int `json:"warmup"`
	// QueueCap bounds each shard's or node's FIFO of client requests;
	// arrivals beyond it are dropped. A fleet never sheds replication or
	// catch-up traffic (a replica that dropped a sequenced update could
	// never rejoin its range).
	QueueCap int `json:"queue_cap"`
	// BatchMax is the group-commit limit K: within an admission run,
	// consecutive requests form commit groups of up to K, and each group
	// commits behind one persist-barrier trio. K = 1 disables grouping
	// (every request keeps its own 4 barriers).
	BatchMax int `json:"batch_max"`
	// BatchDeadline is how many cycles an idle core's queue head waits for
	// co-batching before a run starts with fewer than K requests queued.
	BatchDeadline uint64 `json:"batch_deadline"`
	// GetFrac is the fraction of requests that are read-only gets
	// (structure search, no transaction; primary-only in a fleet).
	GetFrac float64 `json:"get_frac"`
	// Keyspace bounds request keys.
	Keyspace int `json:"keyspace"`
	// OpOverhead is the dependent-ALU application preamble per request
	// (0 = default, negative = none).
	OpOverhead int `json:"op_overhead"`
	// LogCap sizes each undo log (0 = pstruct.DefaultLogCap).
	LogCap int `json:"log_cap,omitempty"`
	// Seed drives arrivals, keys, the get/update mix and each backend's
	// warmup.
	Seed int64 `json:"seed"`
	// SSBEntries overrides the SP store-buffer size (0 = default); only
	// the speculative variant has one.
	SSBEntries int `json:"ssb_entries,omitempty"`
	// Timeline, when non-nil, records the layer's events: a server's batch
	// spans, queue depth and drops on the service track (plus every
	// component's events), or a fleet's events on the cluster track (its
	// nodes keep private cycle domains and are not traced).
	Timeline *obs.Timeline `json:"-"`
}

// DefaultServing returns harness-scale traffic for one SP server.
func DefaultServing() Serving {
	return Serving{
		Structure: "HM",
		Variant:   core.VariantSP,
		Rate:      50,
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

// WithDefaults resolves zero-valued knobs.
func (s Serving) WithDefaults() Serving {
	if s.Structure == "" {
		s.Structure = "HM"
	}
	if s.Requests == 0 {
		s.Requests = 256
	}
	if s.QueueCap == 0 {
		s.QueueCap = 64
	}
	if s.BatchMax == 0 {
		s.BatchMax = 1
	}
	if s.Keyspace == 0 {
		s.Keyspace = 128
	}
	if s.OpOverhead == 0 {
		s.OpOverhead = defaultOpOverhead
	}
	if s.LogCap == 0 {
		s.LogCap = pstruct.DefaultLogCap(s.Structure)
	}
	return s
}

// Validate rejects request knobs the engines would mis-simulate. It runs
// on the defaults-resolved form, so a zero value in an optional knob is
// never an error. Errors carry no layer prefix; each layer adds its own.
func (s Serving) Validate() error {
	d := s.WithDefaults()
	if !(d.Rate > 0) {
		return fmt.Errorf("arrival rate must be positive, got %g req/Mcycle", d.Rate)
	}
	switch d.Variant {
	case core.VariantLogP, core.VariantLogPSf, core.VariantSP:
	default:
		return fmt.Errorf("variant %s has no durable commit; use Log+P, Log+P+Sf or SP", d.Variant)
	}
	if !slices.Contains(pstruct.AllNames(), d.Structure) {
		return fmt.Errorf("unknown structure %q (valid: %v)", d.Structure, pstruct.AllNames())
	}
	if d.Requests < 1 {
		return fmt.Errorf("request count must be positive, got %d", d.Requests)
	}
	if d.QueueCap < 1 {
		return fmt.Errorf("queue capacity must be at least 1, got %d", d.QueueCap)
	}
	if d.BatchMax < 1 {
		return fmt.Errorf("group-commit batch size must be at least 1, got %d", d.BatchMax)
	}
	if d.GetFrac < 0 || d.GetFrac > 1 {
		return fmt.Errorf("get fraction must be in [0,1], got %g", d.GetFrac)
	}
	if d.Keyspace < 1 {
		return fmt.Errorf("keyspace must be positive, got %d", d.Keyspace)
	}
	if d.Warmup < 0 {
		return fmt.Errorf("warmup must be non-negative, got %d", d.Warmup)
	}
	if d.SSBEntries < 0 {
		return fmt.Errorf("SSB size must be non-negative, got %d", d.SSBEntries)
	}
	if d.SSBEntries > 0 && !d.Variant.Speculative() {
		return fmt.Errorf("ssb_entries %d: variant %s has no SP hardware to size", d.SSBEntries, d.Variant)
	}
	if d.LogCap < 0 {
		return fmt.Errorf("log capacity must be non-negative, got %d", d.LogCap)
	}
	return nil
}

// Machine is the machine every serving core runs on: the variant's
// Table 2 machine with the SSB size applied.
func (s Serving) Machine() core.Options {
	o := core.DefaultOptions().For(s.Variant)
	if s.SSBEntries > 0 {
		o.CPU.SP.SSBEntries = s.SSBEntries
	}
	return o
}

// Arrival is one offered request of the open-loop schedule.
type Arrival struct {
	At uint64 // arrival cycle
	Op
}

// Clock turns each request's exponential gap draw into its arrival cycle.
type Clock func(gap float64) uint64

// PoissonClock spaces arrivals by exponential gaps at rate requests per
// million cycles.
func PoissonClock(rate float64) Clock {
	perCycle := rate / 1e6
	t := 0.0
	return func(gap float64) uint64 {
		t += gap / perCycle
		return uint64(t)
	}
}

// Arrivals materializes the seeded open-loop schedule of s.Requests
// requests. Each request draws its gap (which clock turns into a cycle),
// then its key (from the source keys builds over the schedule's
// generator; nil keys draws uniformly below Keyspace), then its class.
// The draw order is fixed, so one seed gives one schedule whatever the
// other knobs.
func (s Serving) Arrivals(clock Clock, keys func(*rand.Rand) func() uint64) []Arrival {
	rng := rand.New(rand.NewSource(s.Seed))
	key := func() uint64 { return uint64(rng.Intn(s.Keyspace)) }
	if keys != nil {
		key = keys(rng)
	}
	reqs := make([]Arrival, s.Requests)
	for i := range reqs {
		at := clock(rng.ExpFloat64())
		k := key()
		reqs[i] = Arrival{At: at, Op: Op{Key: k, Get: rng.Float64() < s.GetFrac}}
	}
	return reqs
}

// Admit is the admission step of every serving core: it rebuilds be's
// trace as one back-to-back run, cutting run into commit groups of up to
// BatchMax and appending each through AppendGroup (op gives a request's
// payload), starts core k of sim on it at cycle t, and returns inflight
// with the groups appended in program order. Structure code emits into
// the trace only while Admit has the builder attached.
func Admit[R any](s Serving, be *Backend, sim *multicore.Sim, k int, t uint64, run []R, op func(R) Op, inflight [][]R) [][]R {
	be.Buf.Reset()
	be.bld = trace.NewBuilder(&be.Buf)
	be.Env.SetBuilder(be.bld)
	ops := make([]Op, 0, min(len(run), s.BatchMax))
	for len(run) > 0 {
		n := min(len(run), s.BatchMax)
		ops = ops[:0]
		for _, r := range run[:n] {
			ops = append(ops, op(r))
		}
		be.AppendGroup(ops, s.OpOverhead)
		inflight = append(inflight, run[:n])
		run = run[n:]
	}
	be.Env.SetBuilder(nil)
	be.bld = nil
	sim.Core(k).AdvanceTo(t)
	sim.StartCore(k, &be.Buf)
	return inflight
}
