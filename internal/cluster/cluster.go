// Package cluster simulates a replicated, sharded storage fleet on top of
// the timing core: N nodes, each an internal/service-style server (one
// timing core over a txn-logged persistent structure in its own memory
// system), partitioned by a consistent-hash ring with virtual nodes. Every
// update is sequenced into its key range's log by the range's primary and
// replicated to the R-1 replica owners over a seeded network model; each
// owner independently group-commits the update behind a persist-barrier
// trio and acknowledges at its sentinel store's commit event — the same
// durability timestamp internal/service uses, taken from the cycle the
// store actually reaches the memory system (retirement on a baseline core,
// epoch commit on an SP core). A client request completes only when a
// write quorum W of owners has acknowledged: quorum-gated durability, so
// the fleet never acknowledges state it could lose to W-1 node crashes.
//
// The point of the layer is the paper's claim at fleet scale: persist
// barriers sit inside every replica's ack path, so their latency is paid
// once per quorum member and the slowest quorum member's barrier stall
// lands directly in client latency. Speculative persistence (SP) and group
// commit shrink exactly that term, which the quorum-capacity figures
// measure against replication factor, quorum size, and network RTT.
//
// Model shape and honesty:
//
//   - Each node is a private multicore.Sim (one core, own memory
//     controller) plus a service.Backend. Nodes interact only through the
//     message fabric; there is no cross-node coherence. Client RTT is
//     excluded: latency runs from arrival at the primary to the W-th ack.
//   - A per-(node,range) sequence gate applies each range's updates in
//     global sequence order on every owner, buffering out-of-order
//     deliveries. This makes primary handoff (failover, rebalancing) and
//     recovery catch-up order-safe by construction.
//   - Crash durability is group-granular: a crash loses the node's queue,
//     gate buffers and every commit group whose sentinel had not yet
//     committed; the durable image is the in-order prefix of
//     sentinel-committed updates. The bit-level crash is additionally
//     exercised as a validation pass — the functional memory image is
//     crashed through internal/fault's sampled line fates, recovered via
//     the undo log, and invariant-checked — before the node is rebuilt
//     from the durable prefix.
//   - A node refills what it missed one way: its fetch loop. A range
//     needs repair when its gate buffers out-of-order deliveries, or, on
//     a recovering node, while the gate is below the log length the range
//     had at recovery. The node keeps one batched fetch in flight, to an
//     owner it holds a fresh lease on, and each response goes through the
//     gate and the normal group-commit path and drives the next fetch. A
//     recovering node first replays its durable log (rebuild) and rejoins
//     (serves and counts toward new quorums as a full member) once
//     durably caught up. While recovering it replicates and acknowledges
//     but does not serve client traffic.
//   - No node reads another's state. A node learns of a missing update
//     from its gates and its recovery target, and of a crash only from
//     its leases: a request that reaches a crashed primary is lost with
//     it and times out, and messages to a crashed node are lost.
//   - Everything is seeded and single-threaded per run: two runs of one
//     Config produce byte-identical results at any sweep worker count.
package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"specpersist/internal/chaos"
	"specpersist/internal/fault"
	"specpersist/internal/hist"
	"specpersist/internal/multicore"
	"specpersist/internal/obs"
	"specpersist/internal/sched"
	"specpersist/internal/service"
	"specpersist/internal/txn"
)

// Config parameterizes one fleet simulation: the request knobs every
// node shares with a storage server, plus the fleet's own.
type Config struct {
	service.Serving
	// Nodes is the fleet size.
	Nodes int `json:"nodes"`
	// Replicas is the ownership factor R: each key range lives on R nodes.
	Replicas int `json:"replicas"`
	// Quorum is the write quorum W (0 = majority of Replicas). An update is
	// acknowledged to the client only after W owners durably applied it.
	Quorum int `json:"quorum"`
	// VNodes is the virtual-node count per physical node on the hash ring.
	VNodes int `json:"vnodes"`
	// ZipfS skews the key popularity (0 = uniform; otherwise must be > 1,
	// the rand.Zipf exponent).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// NetRTT is the inter-node round-trip time in cycles.
	NetRTT uint64 `json:"net_rtt"`
	// NetJitter scales per-message latency spread: one-way delay is
	// RTT/2 * [1-J, 1+J), drawn deterministically per message.
	NetJitter float64 `json:"net_jitter"`
	// CatchupBatch is how many missed updates a node's repair fetch asks
	// for per round trip.
	CatchupBatch int `json:"catchup_batch"`
	// CrashAt, when > 0, crashes node CrashNode at that cycle.
	CrashAt uint64 `json:"crash_at,omitempty"`
	// CrashNode is the node to crash (with CrashAt > 0).
	CrashNode int `json:"crash_node,omitempty"`
	// RecoverAfter, when > 0, restarts the crashed node that many cycles
	// after the crash; 0 leaves it down for the rest of the run.
	RecoverAfter uint64 `json:"recover_after,omitempty"`
	// RebalanceEvery, when > 0, runs the primary-rebalancer at that period:
	// the hottest node's hottest range moves its primaryship to the
	// least-loaded live owner (replica placement never changes).
	RebalanceEvery uint64 `json:"rebalance_every,omitempty"`
	// ReqDeadline bounds each request's wait for completion (0 =
	// 150*NetRTT): a request still pending that many cycles after arrival
	// times out, counted separately and never acknowledged (so it carries
	// no durability obligation). A request stranded by a crash or a lossy
	// network ends this way.
	ReqDeadline uint64 `json:"req_deadline,omitempty"`
	// RetryMax, when > 0, re-replicates an un-acknowledged update to its
	// unheard owners up to this many times with capped exponential
	// backoff. The per-(node,range) sequence gates make retries
	// idempotent: an owner that already released the sequence drops the
	// duplicate, re-acknowledging when it is already durable — which is
	// exactly how a lost ack is recovered.
	RetryMax int `json:"retry_max,omitempty"`
	// RetryBase is the first retry backoff in cycles (0 = 4*NetRTT).
	RetryBase uint64 `json:"retry_base,omitempty"`
	// RetryCap caps the exponential backoff (0 = 8*RetryBase).
	RetryCap uint64 `json:"retry_cap,omitempty"`
	// HedgeQuantile, when in (0,1), sends one early retransmission to the
	// unheard owners once an update has waited past that quantile of the
	// collector's observed completion latencies (2*NetRTT until the
	// collector has observed any).
	HedgeQuantile float64 `json:"hedge_quantile,omitempty"`
	// ShedHighWater, when > 0, sheds new client arrivals at a primary
	// whose FIFO has reached this depth — explicit load-shedding ahead of
	// the hard QueueCap drop, counted separately. Replication and
	// catch-up traffic is never shed.
	ShedHighWater int `json:"shed_high_water,omitempty"`
	// HeartbeatEvery is the failure detector's period (0 = 5*NetRTT, or
	// coarser on a run that would tick more than maxTicks times): every
	// tick each up node beats every other node through the
	// (chaos-afflicted) fabric, and a range fails over only when a live
	// owner has heard nothing from its primary for LeaseCycles. No node
	// learns of a crash any other way, so crashes are detected a lease
	// late, and partitions and gray nodes can cause wrong suspicions.
	HeartbeatEvery uint64 `json:"heartbeat_every,omitempty"`
	// LeaseCycles is the suspicion threshold (0 = 4*HeartbeatEvery; must
	// exceed HeartbeatEvery). It also paces the re-issue of a lost repair
	// fetch.
	LeaseCycles uint64 `json:"lease_cycles,omitempty"`
	// BreakDedup deliberately re-applies duplicate sequence deliveries
	// instead of dropping them — the negative control that must make the
	// end-of-run audit report an idempotency violation whenever
	// duplicates or retries occur. Test hook; never set in experiments.
	BreakDedup bool `json:"break_dedup,omitempty"`
	// Chaos, when non-nil and enabled, layers a deterministic fault plan
	// over the network fabric: per-message drop/duplicate/delay/reorder
	// fates, cycle-windowed partitions and gray nodes (internal/chaos).
	Chaos *chaos.Plan `json:"chaos,omitempty"`
}

// DefaultConfig returns a harness-scale 3-node R=2 majority-quorum SP
// fleet.
func DefaultConfig() Config {
	c := Config{
		Serving:      service.DefaultServing(),
		Nodes:        3,
		Replicas:     2,
		VNodes:       8,
		NetRTT:       800,
		NetJitter:    0.2,
		CatchupBatch: 32,
	}
	c.Warmup = 96
	return c
}

// withDefaults resolves zero-valued knobs.
func (c Config) withDefaults() Config {
	c.Serving = c.Serving.WithDefaults()
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Replicas == 0 {
		c.Replicas = 2
		if c.Replicas > c.Nodes {
			c.Replicas = c.Nodes
		}
	}
	if c.Quorum == 0 {
		c.Quorum = c.Replicas/2 + 1
	}
	if c.VNodes == 0 {
		c.VNodes = 8
	}
	if c.NetRTT == 0 {
		c.NetRTT = 800
	}
	if c.CatchupBatch == 0 {
		c.CatchupBatch = 32
	}
	if c.RetryMax > 0 {
		if c.RetryBase == 0 {
			c.RetryBase = 4 * c.NetRTT
		}
		if c.RetryCap == 0 {
			c.RetryCap = 8 * c.RetryBase
		}
	}
	if c.ReqDeadline == 0 {
		c.ReqDeadline = 150 * c.NetRTT
	}
	if c.HeartbeatEvery == 0 {
		// Five round trips outlast the longest one-way delay. A run whose
		// worst-case span would tick more than maxTicks times at that
		// period gets the coarsest period that stays within the bound.
		c.HeartbeatEvery = 5 * c.NetRTT
		if p := math.Ceil(c.worstSpan() / maxTicks); p > float64(c.HeartbeatEvery) && p < 1<<60 {
			c.HeartbeatEvery = uint64(p)
		}
	}
	if c.LeaseCycles == 0 {
		c.LeaseCycles = 4 * c.HeartbeatEvery
	}
	return c
}

// maxTicks bounds how often one periodic knob (heartbeat-every,
// rebalance-every) may tick over a run's worst-case span (see Validate).
const maxTicks = 1 << 16

// worstSpan bounds how long a run's periodic ticks keep firing, in
// cycles: they fire for as long as any work is pending, so until the
// later of the expected last arrival and the crash/recovery events, plus
// a deadline for each try of a request.
func (c Config) worstSpan() float64 {
	return max(float64(c.Requests)*1e6/c.Rate, float64(c.CrashAt)+float64(c.RecoverAfter)) +
		float64(c.ReqDeadline)*float64(c.RetryMax+1)
}

// Validate rejects configurations the engine would mis-simulate, or whose
// periodic ticks would make a run's work unbounded, on the
// defaults-resolved form.
func (c Config) Validate() error {
	if err := c.Serving.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	d := c.withDefaults()
	if d.Nodes < 1 {
		return fmt.Errorf("cluster: node count must be at least 1, got %d", d.Nodes)
	}
	if d.Replicas < 1 || d.Replicas > d.Nodes {
		return fmt.Errorf("cluster: replication factor must be in [1, %d nodes], got %d", d.Nodes, d.Replicas)
	}
	if d.Quorum < 1 || d.Quorum > d.Replicas {
		return fmt.Errorf("cluster: write quorum must be in [1, %d replicas], got %d", d.Replicas, d.Quorum)
	}
	if d.VNodes < 1 {
		return fmt.Errorf("cluster: virtual-node count must be at least 1, got %d", d.VNodes)
	}
	if d.Keyspace < 2 {
		return fmt.Errorf("cluster: keyspace must be at least 2, got %d", d.Keyspace)
	}
	if d.ZipfS != 0 && d.ZipfS <= 1 {
		return fmt.Errorf("cluster: zipf exponent must be 0 (uniform) or > 1, got %g", d.ZipfS)
	}
	if d.NetRTT < 2 {
		return fmt.Errorf("cluster: network RTT must be at least 2 cycles, got %d", d.NetRTT)
	}
	if d.NetJitter < 0 || d.NetJitter >= 1 {
		return fmt.Errorf("cluster: network jitter must be in [0,1), got %g", d.NetJitter)
	}
	if d.CatchupBatch < 1 {
		return fmt.Errorf("cluster: catch-up batch must be at least 1, got %d", d.CatchupBatch)
	}
	if d.CrashAt > 0 && (d.CrashNode < 0 || d.CrashNode >= d.Nodes) {
		return fmt.Errorf("cluster: crash node must be in [0,%d), got %d", d.Nodes, d.CrashNode)
	}
	if d.CrashAt == 0 && d.RecoverAfter > 0 {
		return fmt.Errorf("cluster: recover-after needs a crash (set crash-at)")
	}
	if d.RecoverAfter > math.MaxUint64-d.CrashAt {
		return fmt.Errorf("cluster: crash-at %d plus recover-after %d overflows the cycle counter", d.CrashAt, d.RecoverAfter)
	}
	if err := d.Chaos.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if d.Chaos != nil {
		for i, w := range d.Chaos.Partitions {
			for _, n := range w.Group {
				if n >= d.Nodes {
					return fmt.Errorf("cluster: chaos partition %d names node %d beyond the %d-node fleet", i, n, d.Nodes)
				}
			}
		}
		for i, g := range d.Chaos.Grays {
			if g.Node >= d.Nodes {
				return fmt.Errorf("cluster: chaos gray %d names node %d beyond the %d-node fleet", i, g.Node, d.Nodes)
			}
		}
	}
	if d.RetryMax < 0 {
		return fmt.Errorf("cluster: retry count must be non-negative, got %d", d.RetryMax)
	}
	if d.RetryMax > 0 && d.RetryCap < d.RetryBase {
		return fmt.Errorf("cluster: retry backoff cap %d below base %d", d.RetryCap, d.RetryBase)
	}
	if d.HedgeQuantile != 0 && (d.HedgeQuantile < 0 || d.HedgeQuantile >= 1) {
		return fmt.Errorf("cluster: hedge quantile must be 0 (off) or in (0,1), got %g", d.HedgeQuantile)
	}
	if d.ShedHighWater < 0 || d.ShedHighWater > d.QueueCap {
		return fmt.Errorf("cluster: shed high-water mark must be in [0, queue cap %d], got %d", d.QueueCap, d.ShedHighWater)
	}
	if d.LeaseCycles <= d.HeartbeatEvery {
		return fmt.Errorf("cluster: lease %d must exceed the heartbeat period %d", d.LeaseCycles, d.HeartbeatEvery)
	}
	oneWay := float64(d.NetRTT) / 2 * (1 + d.NetJitter) // the longest one-way delay
	if oneWay >= float64(d.HeartbeatEvery) {
		// A tick wins its cycle's ties, so beats still in flight at every
		// tick would keep a drained fleet ticking forever.
		return fmt.Errorf("cluster: heartbeat-every %d must exceed the longest one-way network delay, %g cycles",
			d.HeartbeatEvery, oneWay)
	}
	if d.Chaos != nil {
		// Beats in flight keep a drained fleet ticking, and every tick
		// sends N(N-1) more, so a run ends only at a tick whose beats all
		// land within the period: about (1-late)^-N(N-1) ticks after the
		// work drains, where late is the share of beats whose fate can
		// outlive the period.
		late := 0.0
		if oneWay*d.Chaos.DelayMult >= float64(d.HeartbeatEvery) {
			late += d.Chaos.Delay
		}
		if oneWay+float64(d.NetRTT) >= float64(d.HeartbeatEvery) {
			late += d.Chaos.Reorder
		}
		if tail := math.Pow(1-late, -float64(d.Nodes*(d.Nodes-1))); tail > maxTicks {
			return fmt.Errorf("cluster: chaos-delay %g (x chaos-delay-mult %g) and chaos-reorder %g outlive heartbeat-every %d on %d nodes: a drained fleet would tick about %.3g more times, more than %d",
				d.Chaos.Delay, d.Chaos.DelayMult, d.Chaos.Reorder, d.HeartbeatEvery, d.Nodes, tail, maxTicks)
		}
	}
	// Periodic ticks cost in proportion to the span over the period.
	span := d.worstSpan()
	for _, t := range []struct {
		knob  string
		every uint64
	}{{"heartbeat-every", d.HeartbeatEvery}, {"rebalance-every", d.RebalanceEvery}} {
		if t.every > 0 && span/float64(t.every) > maxTicks {
			return fmt.Errorf("cluster: %s %d ticks %.3g times over the worst-case span of %.3g cycles, more than %d",
				t.knob, t.every, span/float64(t.every), span, maxTicks)
		}
	}
	return nil
}

// arrivals is the fleet's client schedule: the shared generator on a
// Poisson clock, over uniform or Zipf-skewed keys.
func (c Config) arrivals() []service.Arrival {
	var keys func(*rand.Rand) func() uint64
	if c.ZipfS > 1 {
		keys = func(rng *rand.Rand) func() uint64 {
			return rand.NewZipf(rng, c.ZipfS, 1, uint64(c.Keyspace-1)).Uint64
		}
	}
	return c.Serving.Arrivals(service.PoissonClock(c.Rate), keys)
}

// item is one unit of node work: a sequenced update of a range, or a
// primary-only get.
type item struct {
	rid   int
	seq   uint64 // update sequence within rid (updates only)
	key   uint64
	get   bool
	reqID int    // arrival index
	enq   uint64 // cycle the item entered this node's queue
}

// logEntry is one committed position in a range's replicated log.
type logEntry struct {
	key   uint64
	reqID int
}

// pendingReq tracks one client request awaiting its quorum.
type pendingReq struct {
	reqID     int
	rid       int
	seq       uint64
	at        uint64
	collector int // node gathering acks (primary at arrival)
	need      int
	got       int
	ackedBy   []int
	get       bool
	retries   int  // backoff retransmissions issued
	hedged    bool // the one hedged send has fired
}

// completedRec records a completed update for the end-of-run durability
// check: every acker must durably hold (rid, seq).
type completedRec struct {
	rid     int
	seq     uint64
	ackedBy []int
}

// durOp is one sentinel-committed update, in commit order — the node's
// durable log, replayed on rebuild after a crash.
type durOp struct {
	rid int
	seq uint64
	key uint64
}

type nodeState int

const (
	stateLive nodeState = iota
	stateCrashed
	stateRecovering
)

func (s nodeState) String() string {
	switch s {
	case stateLive:
		return "live"
	case stateCrashed:
		return "crashed"
	default:
		return "recovering"
	}
}

// effect is one outcome of a node's run that the rest of the fleet can
// observe: a sentinel commit at cycle at, or (drain) the core finishing
// the run at cycle at. A run is timed to its end as soon as it starts, and
// its effects wait in the node's queue until the loop reaches them.
type effect struct {
	at    uint64
	drain bool
}

// rangeGate applies one range's updates in sequence order on one node,
// buffering out-of-order deliveries.
type rangeGate struct {
	next uint64
	buf  map[uint64]item
}

// node is one fleet member: a private machine plus harness bookkeeping.
type node struct {
	idx   int
	sim   *multicore.Sim
	be    *service.Backend
	state nodeState

	queue    []item
	inflight [][]item
	busy     bool
	effects  []effect // the timed-ahead run's outcomes not yet applied

	gates      []*rangeGate // per range, nil until its first delivery
	appliedDur []uint64     // per range: durable in-order applied count
	durableOps []durOp

	hist hist.Histogram // completions collected here (as primary)

	// Failure detection: last cycle anything was heard from each peer,
	// raised by every delivered message and by every beat folded in at a
	// tick (see foldBeats).
	lastBeat []uint64

	// Repair state: the one fetch in flight, and, while recovering, each
	// range's log length at recovery.
	recoverAt        uint64
	catchupTarget    []uint64
	fetchOutstanding bool
	fetchAt          uint64 // send cycle of the outstanding fetch (retry pacing)

	// Counters.
	acks       uint64
	collected  uint64
	catchupOps uint64
	crashes    uint64
	rejoinAt   uint64
}

// Stats aggregates the fleet-level counters.
type Stats struct {
	Offered     uint64 `json:"offered"`
	Completed   uint64 `json:"completed"`   // quorum-acknowledged requests
	Dropped     uint64 `json:"dropped"`     // shed by the primary's bounded FIFO
	Failed      uint64 `json:"failed"`      // always 0: a request stranded by a crash times out (kept for readers that sum it)
	Unavailable uint64 `json:"unavailable"` // refused at arrival: a recovering primary, or no quorum of owners the primary's leases show alive
	Acks        uint64 `json:"acks"`        // durable-apply acknowledgements (all owners)
	ReplMsgs    uint64 `json:"repl_msgs"`   // replication messages sent
	NetMsgs     uint64 `json:"net_msgs"`    // messages sent (replication, acks, fetches); liveness beats count in Heartbeats only
	CatchupOps  uint64 `json:"catchup_ops"` // updates fetched by repair: recovery catch-up and live gap repair alike
	Groups      uint64 `json:"groups"`      // commit groups issued fleet-wide
	Crashes     uint64 `json:"crashes"`
	Rejoins     uint64 `json:"rejoins"`
	Failovers   uint64 `json:"failovers"`  // primaryships moved off a suspected or crashed node
	Rebalances  uint64 `json:"rebalances"` // primaryships moved by the load balancer
	Ranges      int    `json:"ranges"`
	SpanCycles  uint64 `json:"span_cycles"`

	// Robustness and failure-detection counters (all but Heartbeats stay
	// zero on a kind network without crashes).
	Shed            uint64 `json:"shed,omitempty"`             // load-shed at the high-water mark
	TimedOut        uint64 `json:"timed_out,omitempty"`        // deadline expired before the quorum
	Retries         uint64 `json:"retries,omitempty"`          // backoff retransmission rounds
	Hedges          uint64 `json:"hedges,omitempty"`           // quantile-delay hedged retransmissions
	DupDrops        uint64 `json:"dup_drops,omitempty"`        // duplicate sequence deliveries dropped at a gate
	ReAcks          uint64 `json:"re_acks,omitempty"`          // duplicates of already-durable updates re-acknowledged
	DupAcks         uint64 `json:"dup_acks,omitempty"`         // duplicate per-owner acks ignored by collectors
	Heartbeats      uint64 `json:"heartbeats,omitempty"`       // liveness beats sent
	Suspicions      uint64 `json:"suspicions,omitempty"`       // lease expiries that moved a primaryship
	WrongSuspicions uint64 `json:"wrong_suspicions,omitempty"` // ... whose suspect was alive (partition/gray)

	// Network chaos accounting (from the fabric).
	NetChaosDropped   uint64 `json:"net_chaos_dropped,omitempty"`
	NetChaosCut       uint64 `json:"net_chaos_cut,omitempty"`
	NetChaosDupped    uint64 `json:"net_chaos_dupped,omitempty"`
	NetChaosDelayed   uint64 `json:"net_chaos_delayed,omitempty"`
	NetChaosReordered uint64 `json:"net_chaos_reordered,omitempty"`
}

// NodeResult summarizes one node's run.
type NodeResult struct {
	Node         int    `json:"node"`
	State        string `json:"state"`
	Collected    uint64 `json:"collected"` // completions collected as primary
	Acks         uint64 `json:"acks"`
	CatchupOps   uint64 `json:"catchup_ops,omitempty"` // updates its repair fetches brought in
	Crashes      uint64 `json:"crashes,omitempty"`
	RejoinCycles uint64 `json:"rejoin_cycles,omitempty"` // recovery start to rejoin
	P99          uint64 `json:"p99"`
}

// Result is the outcome of one fleet run.
type Result struct {
	Config  Config `json:"config"`
	Variant string `json:"variant"`
	Stats   Stats  `json:"stats"`

	// Hist pools every node's collected-latency histogram (hist.Merge),
	// arrival to W-th durable ack, in cycles.
	Hist hist.Histogram `json:"hist"`
	P50  uint64         `json:"p50"`
	P95  uint64         `json:"p95"`
	P99  uint64         `json:"p99"`
	P999 uint64         `json:"p999"`
	Mean float64        `json:"mean"`

	// Throughput is quorum-acknowledged goodput in requests per Mcycle.
	Throughput float64 `json:"throughput"`

	PerNode []NodeResult `json:"per_node"`

	// Metrics is the unified snapshot: cluster.* counters plus each node's
	// machine counters under "nodeN." prefixes.
	Metrics obs.Snapshot `json:"metrics,omitempty"`

	// Audit is the end-of-run audit's report, present only on RunAudited
	// runs (Run fails on any violation and otherwise leaves it nil).
	Audit *Audit `json:"audit,omitempty"`
}

// fleet is the simulation state of one Run.
type fleet struct {
	cfg   Config
	ring  *Ring
	net   *network
	nodes []*node
	tl    *obs.Timeline
	reg   *obs.Registry

	rangeLog  [][]logEntry
	rangeHeat []uint64 // arrivals since the last rebalance tick
	pending   map[int]*pendingReq
	completed []completedRec

	crashDone   bool
	recoverDone bool
	nextRebal   uint64
	nextBeat    uint64

	timers   timerHeap
	timerSeq uint64

	stats Stats
	err   error
}

// event kinds, in tie-break priority order at equal cycles. The periodic
// heartbeat and rebalance ticks win every tie. A delivery beats a timer at
// the same cycle, so an ack arriving exactly at the deadline still
// completes its request.
const (
	evHeartbeat = iota
	evRebalance
	evArrival
	evDeliver
	evBeats // the last liveness beat in flight lands (ordered as a delivery)
	evTimer
	evCrash
	evRecover
	evStart
	evStep // a busy node's next effect
)

// timerKind discriminates client-side timers.
type timerKind int

const (
	timerDeadline timerKind = iota
	timerRetry
	timerHedge
)

// timer is one pending client-side event; timers are totally ordered by
// (cycle, creation sequence), so firing order is deterministic.
type timer struct {
	at    uint64
	seq   uint64
	kind  timerKind
	reqID int
}

type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(timer)) }
func (h *timerHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// addTimer schedules a client-side timer.
func (s *fleet) addTimer(at uint64, kind timerKind, reqID int) {
	heap.Push(&s.timers, timer{at: at, seq: s.timerSeq, kind: kind, reqID: reqID})
	s.timerSeq++
}

// Run simulates one fleet configuration to completion and audits it.
// Invariant breaches are errors naming the first Violation: a violation
// means the engine (or a deliberately broken knob like BreakDedup) let an
// acknowledged update escape durability, and a plain run must not return
// numbers built on that. A clean run's Result carries no Audit.
func Run(cfg Config) (Result, error) {
	r, err := RunAudited(cfg)
	if err == nil {
		err = r.Audit.err()
	}
	if err != nil {
		return Result{}, err
	}
	r.Audit = nil
	return r, nil
}

// RunAudited is Run with the audit in reporting mode: the same checker's
// report lands in Result.Audit instead of failing the run, so chaos
// campaigns can count and delta-minimize violations (and negative
// controls can prove the checker catches them).
func RunAudited(cfg Config) (_ Result, err error) {
	// A log capacity too small for an operation is the config's error.
	defer txn.RecoverCapacity(&err)
	s, err := newFleet(cfg)
	if err != nil {
		return Result{}, err
	}
	if err := s.loop(s.cfg.arrivals()); err != nil {
		return Result{}, err
	}
	a := s.audit()
	r := s.result()
	r.Audit = &a
	return r, nil
}

// newFleet validates cfg and builds its fleet: ring, network and every
// node's machine, ready for the loop.
func newFleet(cfg Config) (*fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	s := &fleet{
		cfg:     cfg,
		ring:    newRing(cfg.Nodes, cfg.VNodes, cfg.Replicas),
		net:     newNetwork(cfg.Seed+0x5eed, cfg.NetRTT, cfg.NetJitter, cfg.Chaos),
		tl:      cfg.Timeline,
		reg:     obs.NewRegistry(),
		pending: map[int]*pendingReq{},
	}
	s.rangeLog = make([][]logEntry, s.ring.numRanges())
	s.rangeHeat = make([]uint64, s.ring.numRanges())
	s.stats.Ranges = s.ring.numRanges()
	s.nextRebal = cfg.RebalanceEvery
	s.nextBeat = cfg.HeartbeatEvery
	s.registerCounters()

	for i := 0; i < cfg.Nodes; i++ {
		n := &node{idx: i, gates: make([]*rangeGate, s.ring.numRanges()),
			appliedDur: make([]uint64, s.ring.numRanges()), lastBeat: make([]uint64, cfg.Nodes)}
		if err := s.buildMachine(n); err != nil {
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}
	return s, nil
}

// buildMachine (re)constructs node n's simulated machine and backend and
// binds the sentinel commit hook. Used at fleet build and at post-crash
// rebuild; the durable structure replay is the caller's job.
func (s *fleet) buildMachine(n *node) error {
	sim := multicore.New(multicore.Config{Cores: 1, Options: s.cfg.Machine()})
	be, err := service.NewBackend(s.cfg.Serving, n.idx, 0, sim.Registry(0))
	if err != nil {
		return fmt.Errorf("cluster: node %d: %w", n.idx, err)
	}
	n.sim, n.be = sim, be
	// The core fires commit callbacks before it advances its clock, so
	// Now is the cycle of the step that made the sentinel durable.
	c := sim.Core(0)
	be.BindSentinel(sim, 0, func() { n.effects = append(n.effects, effect{at: c.Now()}) })
	return nil
}

// registerCounters publishes the cluster.* key space.
func (s *fleet) registerCounters() {
	s.reg.RegisterFunc("cluster.offered", func() uint64 { return s.stats.Offered })
	s.reg.RegisterFunc("cluster.completed", func() uint64 { return s.stats.Completed })
	s.reg.RegisterFunc("cluster.dropped", func() uint64 { return s.stats.Dropped })
	s.reg.RegisterFunc("cluster.failed", func() uint64 { return s.stats.Failed })
	s.reg.RegisterFunc("cluster.unavailable", func() uint64 { return s.stats.Unavailable })
	s.reg.RegisterFunc("cluster.acks", func() uint64 { return s.stats.Acks })
	s.reg.RegisterFunc("cluster.repl_msgs", func() uint64 { return s.stats.ReplMsgs })
	s.reg.RegisterFunc("cluster.net_msgs", func() uint64 { return s.net.sent })
	s.reg.RegisterFunc("cluster.catchup_ops", func() uint64 { return s.stats.CatchupOps })
	s.reg.RegisterFunc("cluster.groups", func() uint64 { return s.stats.Groups })
	s.reg.RegisterFunc("cluster.crashes", func() uint64 { return s.stats.Crashes })
	s.reg.RegisterFunc("cluster.rejoins", func() uint64 { return s.stats.Rejoins })
	s.reg.RegisterFunc("cluster.failovers", func() uint64 { return s.stats.Failovers })
	s.reg.RegisterFunc("cluster.rebalances", func() uint64 { return s.stats.Rebalances })
	s.reg.RegisterFunc("cluster.ranges", func() uint64 { return uint64(s.stats.Ranges) })
	s.reg.RegisterFunc("cluster.span_cycles", func() uint64 { return s.stats.SpanCycles })
	s.reg.RegisterFunc("cluster.shed", func() uint64 { return s.stats.Shed })
	s.reg.RegisterFunc("cluster.timed_out", func() uint64 { return s.stats.TimedOut })
	s.reg.RegisterFunc("cluster.retries", func() uint64 { return s.stats.Retries })
	s.reg.RegisterFunc("cluster.hedges", func() uint64 { return s.stats.Hedges })
	s.reg.RegisterFunc("cluster.dup_drops", func() uint64 { return s.stats.DupDrops })
	s.reg.RegisterFunc("cluster.re_acks", func() uint64 { return s.stats.ReAcks })
	s.reg.RegisterFunc("cluster.dup_acks", func() uint64 { return s.stats.DupAcks })
	s.reg.RegisterFunc("cluster.heartbeats", func() uint64 { return s.stats.Heartbeats })
	s.reg.RegisterFunc("cluster.suspicions", func() uint64 { return s.stats.Suspicions })
	s.reg.RegisterFunc("cluster.wrong_suspicions", func() uint64 { return s.stats.WrongSuspicions })
	s.reg.RegisterFunc("cluster.net.chaos_dropped", func() uint64 { return s.net.chDropped })
	s.reg.RegisterFunc("cluster.net.chaos_cut", func() uint64 { return s.net.chCut })
	s.reg.RegisterFunc("cluster.net.chaos_dupped", func() uint64 { return s.net.chDupped })
	s.reg.RegisterFunc("cluster.net.chaos_delayed", func() uint64 { return s.net.chDelayed })
	s.reg.RegisterFunc("cluster.net.chaos_reordered", func() uint64 { return s.net.chReordered })
}

// span advances the fleet's last-activity cycle.
func (s *fleet) span(t uint64) {
	if t > s.stats.SpanCycles {
		s.stats.SpanCycles = t
	}
}

// loop is the deterministic scheduler: always the globally earliest event,
// with a fixed kind order at equal cycles (heartbeat < rebalance < arrival
// < delivery < timer < crash < recover < run start < node effect) and the
// lowest node index breaking remaining ties. Network deliveries are
// already totally ordered by (cycle, send sequence). A busy node offers
// the head of its effect queue under the key its core step would have had
// (see startRun), so the scan runs once per effect, not once per cycle.
//
// Liveness beats in flight offer one key between them, at the latest
// arrival: like the delivery each one stood for, they keep the periodic
// ticks firing until they land, and a tick at that cycle still wins the
// tie. Only the lease check reads a beat, and every tick folds in the
// beats that landed before it, so the key's own event just folds the
// rest.
func (s *fleet) loop(arrivals []service.Arrival) error {
	idx := 0
	var p sched.Pick
	for {
		p.Reset()
		if idx < len(arrivals) {
			p.Add(sched.Key{T: arrivals[idx].At, Kind: evArrival, Idx: -1})
		}
		if at, ok := s.net.nextAt(); ok {
			p.Add(sched.Key{T: at, Kind: evDeliver, Idx: -1})
		}
		if len(s.net.beats) > 0 {
			p.Add(sched.Key{T: s.net.latestBeat, Kind: evBeats, Idx: -1})
		}
		if len(s.timers) > 0 {
			p.Add(sched.Key{T: s.timers[0].at, Kind: evTimer, Idx: -1})
		}
		if s.cfg.CrashAt > 0 && !s.crashDone {
			p.Add(sched.Key{T: s.cfg.CrashAt, Kind: evCrash, Idx: -1})
		}
		if s.crashDone && !s.recoverDone && s.cfg.RecoverAfter > 0 {
			p.Add(sched.Key{T: s.cfg.CrashAt + s.cfg.RecoverAfter, Kind: evRecover, Idx: -1})
		}
		for i, n := range s.nodes {
			if n.busy {
				// A run stopped short at the pending crash has no effect
				// left; the crash event, due first, ends it.
				if len(n.effects) > 0 {
					p.Add(sched.Key{T: n.effects[0].at, Kind: evStep, Idx: i})
				}
			} else if len(n.queue) > 0 {
				q := n.queue
				t := service.GroupStart(n.sim.Core(0).Now(), len(q), s.cfg.BatchMax, q[0].enq, q[len(q)-1].enq, s.cfg.BatchDeadline)
				p.Add(sched.Key{T: t, Kind: evStart, Idx: i})
			}
		}
		if !p.Ok() {
			break
		}
		// The periodic ticks only compete while other work is pending, so
		// a tick can never keep a drained fleet alive.
		if s.cfg.RebalanceEvery > 0 {
			p.Add(sched.Key{T: s.nextRebal, Kind: evRebalance, Idx: -1})
		}
		p.Add(sched.Key{T: s.nextBeat, Kind: evHeartbeat, Idx: -1})
		switch best := p.Best(); best.Kind {
		case evArrival:
			s.arrive(idx, arrivals[idx])
			idx++
		case evDeliver:
			s.deliver(s.net.pop())
		case evBeats:
			s.foldBeats(best.T + 1)
		case evTimer:
			s.fireTimer(best.T)
		case evCrash:
			s.crashDone = true
			s.crashNode(s.cfg.CrashNode, best.T)
		case evRecover:
			s.recoverDone = true
			s.recoverNode(s.cfg.CrashNode, best.T)
		case evRebalance:
			s.rebalance(best.T)
			s.nextRebal += s.cfg.RebalanceEvery
		case evHeartbeat:
			s.heartbeatTick(best.T)
			s.nextBeat += s.cfg.HeartbeatEvery
		case evStart:
			s.startRun(s.nodes[best.Idx], best.T)
		case evStep:
			s.stepNode(s.nodes[best.Idx])
		}
		if s.err != nil {
			return s.err
		}
	}
	s.stats.NetMsgs = s.net.sent
	s.stats.NetChaosDropped = s.net.chDropped
	s.stats.NetChaosCut = s.net.chCut
	s.stats.NetChaosDupped = s.net.chDupped
	s.stats.NetChaosDelayed = s.net.chDelayed
	s.stats.NetChaosReordered = s.net.chReordered
	acct := s.stats.Completed + s.stats.Dropped + s.stats.Shed + s.stats.TimedOut + s.stats.Unavailable
	if acct != s.stats.Offered {
		return fmt.Errorf("cluster: request accounting broken: %d completed + %d dropped + %d shed + %d timed-out + %d unavailable != %d offered",
			s.stats.Completed, s.stats.Dropped, s.stats.Shed, s.stats.TimedOut, s.stats.Unavailable, s.stats.Offered)
	}
	if len(s.pending) > 0 {
		return fmt.Errorf("cluster: %d requests still pending after the fleet drained", len(s.pending))
	}
	return nil
}

// arrive routes client request id to its range's primary, which handles
// it with what it knows itself. A crashed primary loses it: it stays
// pending until its deadline reaps it. A recovering primary serves no
// clients, and an update needs a quorum among the owners the primary's
// leases show alive; either refusal counts as unavailable. Gets go to the
// primary's FIFO alone; updates are sequenced into the range log and
// fanned out to every other owner.
func (s *fleet) arrive(id int, r service.Arrival) {
	s.stats.Offered++
	rid := s.ring.rangeOf(r.Key)
	s.rangeHeat[rid]++
	p := s.ring.primary(rid)
	pn := s.nodes[p]
	if pn.state == stateCrashed {
		s.pending[id] = &pendingReq{reqID: id, at: r.At, collector: p}
		s.addTimer(r.At+s.cfg.ReqDeadline, timerDeadline, id)
		return
	}
	need := 1
	if !r.Get {
		need = s.cfg.Quorum
	}
	alive := 0
	for _, o := range s.ring.ownersOf(rid) {
		if o == p || !s.leaseExpired(p, o, r.At) {
			alive++
		}
	}
	switch {
	case pn.state == stateRecovering || alive < need:
		s.refuse(&s.stats.Unavailable, "cluster.unavailable", r.At)
		return
	case s.cfg.ShedHighWater > 0 && len(pn.queue) >= s.cfg.ShedHighWater:
		s.refuse(&s.stats.Shed, "cluster.shed", r.At)
		return
	case len(pn.queue) >= s.cfg.QueueCap:
		s.refuse(&s.stats.Dropped, "cluster.drop", r.At)
		return
	}
	pd := &pendingReq{reqID: id, rid: rid, at: r.At, collector: p, need: need, get: r.Get}
	s.pending[id] = pd
	s.addTimer(r.At+s.cfg.ReqDeadline, timerDeadline, id)
	if r.Get {
		// Primary-only, unsequenced: straight into the FIFO.
		pn.queue = append(pn.queue, item{rid: rid, key: r.Key, get: true, reqID: id, enq: r.At})
		return
	}
	if s.cfg.HedgeQuantile > 0 {
		d := pn.hist.Quantile(s.cfg.HedgeQuantile)
		if d == 0 {
			d = 2 * s.cfg.NetRTT // no completions observed yet
		}
		s.addTimer(r.At+d, timerHedge, id)
	}
	if s.cfg.RetryMax > 0 {
		s.addTimer(r.At+s.cfg.RetryBase, timerRetry, id)
	}
	seq := uint64(len(s.rangeLog[rid]))
	s.rangeLog[rid] = append(s.rangeLog[rid], logEntry{key: r.Key, reqID: id})
	pd.seq = seq
	it := item{rid: rid, seq: seq, key: r.Key, reqID: id}
	for _, o := range s.ring.ownersOf(rid) {
		if o == p {
			s.gateDeliver(pn, it, r.At)
		} else {
			s.net.send(&message{from: p, to: o, kind: msgReplicate, item: it}, r.At)
			s.stats.ReplMsgs++
		}
	}
}

// refuse books a request turned away at its arrival at cycle t.
func (s *fleet) refuse(counter *uint64, event string, t uint64) {
	*counter++
	s.span(t)
	s.tl.Instant(obs.TrackCluster, event, t)
}

// fireTimer pops and dispatches the earliest client-side timer. Timers
// for requests that already completed (or timed out) are no-ops —
// completion does not unschedule them, it just empties them.
func (s *fleet) fireTimer(t uint64) {
	tm := heap.Pop(&s.timers).(timer)
	p, ok := s.pending[tm.reqID]
	if !ok {
		return
	}
	switch tm.kind {
	case timerDeadline:
		delete(s.pending, tm.reqID)
		s.stats.TimedOut++
		s.span(t)
		s.tl.Instant(obs.TrackCluster, "cluster.timeout", t)
	case timerRetry:
		if p.get || p.got >= p.need || p.retries >= s.cfg.RetryMax {
			return
		}
		p.retries++
		s.stats.Retries++
		s.retransmit(p, t)
		if p.retries < s.cfg.RetryMax {
			gap := s.cfg.RetryBase << uint(p.retries)
			if gap > s.cfg.RetryCap {
				gap = s.cfg.RetryCap
			}
			s.addTimer(t+gap, timerRetry, p.reqID)
		}
	case timerHedge:
		if p.get || p.hedged || p.got >= p.need {
			return
		}
		p.hedged = true
		s.stats.Hedges++
		s.retransmit(p, t)
	}
}

// retransmit re-sends one pending update from its collector to every
// other owner whose ack has not arrived. The sequence gates make this
// idempotent: an owner that already released the sequence drops it
// (re-acking when durable), one that lost it to the network gets its gap
// filled.
func (s *fleet) retransmit(p *pendingReq, t uint64) {
	if s.nodes[p.collector].state == stateCrashed {
		return // the collector is down and sends nothing; the deadline reaps this request
	}
	e := s.rangeLog[p.rid][p.seq]
	it := item{rid: p.rid, seq: p.seq, key: e.key, reqID: p.reqID}
	for _, o := range s.ring.ownersOf(p.rid) {
		if o == p.collector || slices.Contains(p.ackedBy, o) {
			continue
		}
		s.net.send(&message{from: p.collector, to: o, kind: msgReplicate, item: it}, t)
		s.stats.ReplMsgs++
	}
}

// heartbeatTick runs the failure-detection round: it folds in the beats
// that landed before the tick, sends every up node's beats to every other
// node (through the chaos fabric, so partitions starve them; a crashed
// receiver's are lost with it), checks leases and moves primaryships off
// silent primaries, and turns every up node's repair fetch loop.
func (s *fleet) heartbeatTick(t uint64) {
	s.foldBeats(t)
	for a, na := range s.nodes {
		if na.state == stateCrashed {
			continue
		}
		for b := range s.nodes {
			if b != a {
				s.net.beat(a, b, t)
				s.stats.Heartbeats++
			}
		}
	}
	// Lease check: the first live owner that has heard nothing from its
	// range's primary for a lease takes the primaryship. The suspect may
	// be perfectly alive behind a partition or gray window — that wrong
	// suspicion is counted, and the no-lost-ack audit must survive it.
	// Most ticks find every lease fresh, which the N(N-1) (owner, peer)
	// pairs show without scanning the ranges.
	if s.anyLeaseExpired(t) {
		for rid := 0; rid < s.ring.numRanges(); rid++ {
			p := s.ring.primary(rid)
			for _, o := range s.ring.ownersOf(rid) {
				if o == p || s.nodes[o].state != stateLive || !s.leaseExpired(o, p, t) {
					continue
				}
				s.stats.Suspicions++
				if s.nodes[p].state == stateLive {
					s.stats.WrongSuspicions++
				}
				s.ring.setPrimary(rid, o)
				s.stats.Failovers++
				s.tl.Instant(obs.TrackCluster, "cluster.failover", t)
				break
			}
		}
	}
	for _, n := range s.nodes {
		if n.state != stateCrashed {
			s.fetch(n, t)
		}
	}
}

// leaseExpired reports whether node o has heard nothing from peer p for a
// lease at cycle t.
func (s *fleet) leaseExpired(o, p int, t uint64) bool {
	return s.nodes[o].lastBeat[p]+s.cfg.LeaseCycles <= t
}

// anyLeaseExpired reports whether some live node's lease on some peer has
// expired at cycle t — the precondition of any failover at a tick.
func (s *fleet) anyLeaseExpired(t uint64) bool {
	for o, n := range s.nodes {
		if n.state != stateLive {
			continue
		}
		for p := range n.lastBeat {
			if p != o && s.leaseExpired(o, p, t) {
				return true
			}
		}
	}
	return false
}

// foldBeats folds every beat that landed before cycle t into its
// receiver's lastBeat, as a max, and keeps the rest in flight. A tick at t
// folds with t itself: a beat landing at t arrives after the tick, which
// wins the tie. No receiver filter is needed: nothing reads the lastBeat
// of a crashed node, and recoverNode overwrites it with the recovery
// cycle, which is at least any arrival up to it.
func (s *fleet) foldBeats(t uint64) {
	nw := s.net
	kept := nw.beats[:0]
	nw.latestBeat = 0
	for _, b := range nw.beats {
		if b.at >= t {
			kept = append(kept, b)
			nw.latestBeat = max(nw.latestBeat, b.at)
			continue
		}
		if lb := &s.nodes[b.to].lastBeat[b.from]; b.at > *lb {
			*lb = b.at
		}
	}
	nw.beats = kept
}

// gateDeliver feeds one sequenced update through node n's per-range
// in-order gate, releasing every contiguous sequence into the FIFO. The
// gate is also the idempotency barrier: a sequence it already released
// (network duplicate, retry, hedge, repair fetch overlapping a delivery)
// is dropped, and when the update is already durable here its ack is
// re-sent — which is how an ack lost to the network is recovered.
func (s *fleet) gateDeliver(n *node, it item, t uint64) {
	g := n.gates[it.rid]
	if g == nil {
		g = &rangeGate{next: n.appliedDur[it.rid], buf: map[uint64]item{}}
		n.gates[it.rid] = g
	}
	if it.seq < g.next {
		if s.cfg.BreakDedup {
			// Negative control: re-apply the duplicate. The audit must
			// catch the double durable apply this causes.
			it.enq = t
			n.queue = append(n.queue, it)
			return
		}
		if it.seq < n.appliedDur[it.rid] {
			if p, ok := s.pending[it.reqID]; ok && !p.get {
				s.stats.ReAcks++
				if n.idx == p.collector {
					s.ackArrived(p, n.idx, t)
				} else {
					s.net.send(&message{from: n.idx, to: p.collector, kind: msgAck, reqID: it.reqID}, t)
				}
				return
			}
		}
		s.stats.DupDrops++
		return
	}
	if it.seq > g.next {
		g.buf[it.seq] = it
		return
	}
	for {
		it.enq = t
		n.queue = append(n.queue, it)
		g.next++
		next, ok := g.buf[g.next]
		if !ok {
			return
		}
		delete(g.buf, g.next)
		it = next
	}
}

// deliver processes one network message at its delivery cycle. A message
// to a crashed node is lost with it.
func (s *fleet) deliver(m *message) {
	to := s.nodes[m.to]
	if to.state == stateCrashed {
		return
	}
	// Every delivered message doubles as a liveness signal. A max, like
	// foldBeats, so the two sources of lastBeat commute.
	to.lastBeat[m.from] = max(to.lastBeat[m.from], m.at)
	switch m.kind {
	case msgReplicate:
		s.gateDeliver(to, m.item, m.at)
	case msgAck:
		// A request completed or timed out meanwhile ignores a late ack.
		if p, ok := s.pending[m.reqID]; ok {
			s.ackArrived(p, m.from, m.at)
		}
	case msgFetch:
		// Serve rangeLog[lo, lo+n), clipped to the log's end.
		log := s.rangeLog[m.rid]
		hi := min(m.lo+uint64(m.n), uint64(len(log)))
		items := make([]item, 0, hi-m.lo)
		for seq := m.lo; seq < hi; seq++ {
			items = append(items, item{rid: m.rid, seq: seq, key: log[seq].key, reqID: log[seq].reqID})
		}
		s.net.send(&message{from: m.to, to: m.from, kind: msgFetchResp, items: items}, m.at)
	case msgFetchResp:
		for _, it := range m.items {
			s.gateDeliver(to, it, m.at)
		}
		to.catchupOps += uint64(len(m.items))
		s.stats.CatchupOps += uint64(len(m.items))
		to.fetchOutstanding = false
		s.fetch(to, m.at)
	}
}

// ackArrived books one durable-apply acknowledgement; the W-th completes
// the request at the collector. Duplicate acks from one owner (network
// duplication, retries crossing with originals) count once.
func (s *fleet) ackArrived(p *pendingReq, from int, t uint64) {
	if slices.Contains(p.ackedBy, from) {
		s.stats.DupAcks++
		return
	}
	p.got++
	p.ackedBy = append(p.ackedBy, from)
	if p.got < p.need {
		return
	}
	delete(s.pending, p.reqID)
	if t < p.at {
		s.err = fmt.Errorf("cluster: request %d completed at %d before its arrival %d", p.reqID, t, p.at)
		return
	}
	nd := s.nodes[p.collector]
	nd.hist.Observe(t - p.at)
	nd.collected++
	s.stats.Completed++
	s.span(t)
	if !p.get {
		s.completed = append(s.completed, completedRec{rid: p.rid, seq: p.seq, ackedBy: append([]int(nil), p.ackedBy...)})
	}
	s.tl.Instant(obs.TrackCluster, "cluster.quorum_ack", t)
}

// startRun admits node n's whole queue at cycle t and times the run ahead
// to its end in one call. Nothing the rest of the fleet does can change a
// running core: nodes own disjoint machines, the trace is fixed at
// admission, and arrivals, deliveries, timers and ticks touch only queues
// and fleet state (TestNodeRunIsolation checks this). So the run's only
// outputs, its sentinel commits and its drain, are recorded as effects
// for the loop to apply in event order. The one exception is a crash: the
// crash node's run stops at CrashAt, where the crash cuts it off.
func (s *fleet) startRun(n *node, t uint64) {
	s.admit(n, t)
	horizon := uint64(math.MaxUint64)
	if n.idx == s.cfg.CrashNode && s.cfg.CrashAt > 0 && !s.crashDone {
		horizon = s.cfg.CrashAt
	}
	if !n.sim.StepWhile(0, func() uint64 { return horizon }) {
		n.effects = append(n.effects, effect{at: n.sim.Core(0).Now(), drain: true})
	}
}

// admit turns node n's whole queue into one back-to-back run of commit
// groups — internal/service's admission step, over the shared Backend —
// and starts the core on it at cycle t.
func (s *fleet) admit(n *node, t uint64) {
	before := len(n.inflight)
	n.inflight = service.Admit(s.cfg.Serving, n.be, n.sim, 0, t, n.queue, itemOp, n.inflight)
	n.queue = nil
	s.stats.Groups += uint64(len(n.inflight) - before)
	n.busy = true
}

// itemOp is a work item's storage operation.
func itemOp(it item) service.Op { return service.Op{Key: it.key, Get: it.get} }

// stepNode applies busy node n's next effect: a sentinel commit, or the
// drain that frees the node for its next run.
func (s *fleet) stepNode(n *node) {
	e := n.effects[0]
	n.effects = n.effects[1:]
	if !e.drain {
		s.sentinelCommit(n, e.at)
		return
	}
	if len(n.inflight) > 0 {
		s.err = fmt.Errorf("cluster: node %d drained with %d in-flight groups", n.idx, len(n.inflight))
	}
	n.busy = false
}

// sentinelCommit applies node n's oldest in-flight commit group becoming
// durable at cycle now: updates join the durable log in order and are
// acknowledged to their collector; a recovering node checks whether it
// has caught up.
func (s *fleet) sentinelCommit(n *node, now uint64) {
	if len(n.inflight) == 0 {
		s.err = fmt.Errorf("cluster: node %d sentinel committed with no in-flight group", n.idx)
		return
	}
	group := n.inflight[0]
	n.inflight = n.inflight[1:]
	for _, it := range group {
		if !it.get {
			// Only a broken dedup applies out of order. The durable log
			// keeps the duplicate, so the audit, not the engine, catches
			// the negative control.
			if it.seq == n.appliedDur[it.rid] {
				n.appliedDur[it.rid]++
			}
			n.durableOps = append(n.durableOps, durOp{rid: it.rid, seq: it.seq, key: it.key})
		}
		p, ok := s.pending[it.reqID]
		if !ok {
			continue // answered or timed out already (a repair fetch replays old updates)
		}
		n.acks++
		s.stats.Acks++
		if n.idx == p.collector {
			s.ackArrived(p, n.idx, now)
		} else {
			s.net.send(&message{from: n.idx, to: p.collector, kind: msgAck, reqID: it.reqID}, now)
		}
		if s.err != nil {
			return
		}
	}
	s.span(now)
	if n.state == stateRecovering {
		s.maybeRejoin(n, now)
	}
}

// crashNode kills node idx at cycle t: volatile state (FIFO, gate buffers,
// sentinel-uncommitted groups) is lost, the durable image is the in-order
// committed prefix. The bit-level image is crash-recovered through
// internal/fault's sampled line fates and invariant-checked as a
// validation pass. Nothing else learns of the crash: stranded quorums run
// into their deadlines, and primaryships move only when leases expire at
// a heartbeat tick.
func (s *fleet) crashNode(idx int, t uint64) {
	c := s.nodes[idx]
	if c.state != stateLive {
		s.err = fmt.Errorf("cluster: crash of node %d at %d: node is %s", idx, t, c.state)
		return
	}
	c.state = stateCrashed
	c.crashes++
	s.stats.Crashes++
	s.tl.Instant(obs.TrackCluster, "cluster.crash", t)

	// Validation pass: cut power on the functional memory image with
	// sampled line fates (torn writes included), run undo-log recovery,
	// and check structure invariants.
	var fates []fault.LineFate
	c.be.Env.Crash(fault.CrashOptionsSampled(s.cfg.Seed+int64(idx)*131+17, true, &fates))
	c.be.Mgr.Recover()
	if err := c.be.St.Check(); err != nil {
		s.err = fmt.Errorf("cluster: node %d invariants broken after crash recovery: %w", idx, err)
		return
	}

	// Volatile state is gone. The run was timed only up to this cycle (see
	// startRun), so every effect it recorded has already been applied.
	c.queue, c.inflight, c.busy, c.effects = nil, nil, false, nil
	clear(c.gates)
	c.fetchOutstanding = false
}

// recoverNode restarts the crashed node at cycle t: a fresh machine
// replays the durable log (warmup plus the committed prefix, in commit
// order), then its fetch loop catches each owned range up to the log
// length it has now.
func (s *fleet) recoverNode(idx int, t uint64) {
	c := s.nodes[idx]
	if c.state != stateCrashed {
		s.err = fmt.Errorf("cluster: recovery of node %d at %d: node is %s", idx, t, c.state)
		return
	}
	if err := s.buildMachine(c); err != nil {
		s.err = err
		return
	}
	for _, op := range c.durableOps {
		c.be.St.Apply(op.key)
	}
	c.be.FinishReplay()
	if err := c.be.St.Check(); err != nil {
		s.err = fmt.Errorf("cluster: node %d invariants broken after durable replay: %w", idx, err)
		return
	}
	c.state = stateRecovering
	c.recoverAt = t
	clear(c.gates)
	for i := range c.lastBeat {
		c.lastBeat[i] = t // a fresh lease for everyone; no instant suspicion
	}
	c.catchupTarget = make([]uint64, s.ring.numRanges())
	for _, rid := range s.ring.rangesOwnedBy(idx) {
		c.catchupTarget[rid] = uint64(len(s.rangeLog[rid]))
	}
	s.tl.Instant(obs.TrackCluster, "cluster.recover", t)
	s.fetch(c, t)
	s.maybeRejoin(c, t)
}

// fetch issues node n's next repair fetch at cycle t, unless one is in
// flight and younger than a lease (an older one is taken as lost). A
// range needs repair when its gate buffers out-of-order deliveries, or,
// while n recovers, when its gate is below the catch-up target. The fetch
// asks the range's source (see source) for CatchupBatch sequences from the
// gate's cursor, lowest range first; a range with no source waits for the
// next heartbeat tick.
func (s *fleet) fetch(n *node, t uint64) {
	if n.fetchOutstanding && n.fetchAt+s.cfg.LeaseCycles > t {
		return
	}
	n.fetchOutstanding = false
	for _, rid := range s.ring.rangesOwnedBy(n.idx) {
		next, gap := n.appliedDur[rid], false
		if g := n.gates[rid]; g != nil {
			next, gap = g.next, len(g.buf) > 0
		}
		if !gap && (n.state != stateRecovering || next >= n.catchupTarget[rid]) {
			continue
		}
		src := s.source(n, rid, t)
		if src < 0 {
			continue
		}
		n.fetchOutstanding, n.fetchAt = true, t
		s.net.send(&message{from: n.idx, to: src, kind: msgFetch, rid: rid, lo: next, n: s.cfg.CatchupBatch}, t)
		return
	}
}

// source picks the owner node n fetches range rid from at cycle t: the
// range's primary if that is another node and n's lease on it is fresh,
// else the first other owner n holds a fresh lease on, else -1.
func (s *fleet) source(n *node, rid int, t uint64) int {
	if p := s.ring.primary(rid); p != n.idx && !s.leaseExpired(n.idx, p, t) {
		return p
	}
	for _, o := range s.ring.ownersOf(rid) {
		if o != n.idx && !s.leaseExpired(n.idx, o, t) {
			return o
		}
	}
	return -1
}

// maybeRejoin promotes a recovering node back to live membership once it
// has durably applied every owned range up to its catch-up target.
func (s *fleet) maybeRejoin(c *node, t uint64) {
	for rid, target := range c.catchupTarget {
		if c.appliedDur[rid] < target {
			return
		}
	}
	c.state = stateLive
	c.rejoinAt = t
	s.stats.Rejoins++
	s.tl.Instant(obs.TrackCluster, "cluster.rejoin", t)
}

// rebalance moves the hottest node's hottest range primaryship to the
// least-loaded live owner, based on arrivals since the previous tick.
// Replica placement never changes, and the sequence gates make the
// handoff safe mid-stream.
func (s *fleet) rebalance(t uint64) {
	heat := make([]uint64, len(s.nodes))
	for rid, h := range s.rangeHeat {
		heat[s.ring.primary(rid)] += h
	}
	hot, cold := -1, -1
	for i, n := range s.nodes {
		if n.state != stateLive {
			continue
		}
		if hot == -1 || heat[i] > heat[hot] {
			hot = i
		}
		if cold == -1 || heat[i] < heat[cold] {
			cold = i
		}
	}
	defer func() {
		for i := range s.rangeHeat {
			s.rangeHeat[i] = 0
		}
	}()
	if hot == -1 || hot == cold || heat[hot] == 0 {
		return
	}
	// The hottest of hot's primaried ranges whose owner set includes cold.
	best, bestHeat := -1, uint64(0)
	for rid, h := range s.rangeHeat {
		if s.ring.primary(rid) != hot || !s.ring.isOwner(rid, cold) {
			continue
		}
		if best == -1 || h > bestHeat {
			best, bestHeat = rid, h
		}
	}
	if best == -1 || bestHeat == 0 {
		return
	}
	s.ring.setPrimary(best, cold)
	s.stats.Rebalances++
	s.tl.Instant(obs.TrackCluster, "cluster.rebalance", t)
}

// result assembles the Result from the finished fleet.
func (s *fleet) result() Result {
	hists := make([]*hist.Histogram, len(s.nodes))
	for i, n := range s.nodes {
		hists[i] = &n.hist
	}
	r := Result{
		Config:  s.cfg,
		Variant: s.cfg.Variant.String(),
		Stats:   s.stats,
		Hist:    hist.Merge(hists...),
	}
	r.Mean = r.Hist.Mean()
	r.P50, r.P95, r.P99, r.P999 = r.Hist.Percentiles()
	if s.stats.SpanCycles > 0 {
		r.Throughput = float64(s.stats.Completed) / float64(s.stats.SpanCycles) * 1e6
	}
	for _, n := range s.nodes {
		nr := NodeResult{
			Node:       n.idx,
			State:      n.state.String(),
			Collected:  n.collected,
			Acks:       n.acks,
			CatchupOps: n.catchupOps,
			Crashes:    n.crashes,
			P99:        n.hist.Quantile(0.99),
		}
		if n.rejoinAt > 0 {
			nr.RejoinCycles = n.rejoinAt - n.recoverAt
		}
		r.PerNode = append(r.PerNode, nr)
	}
	m := s.reg.Snapshot()
	for i, n := range s.nodes {
		prefix := fmt.Sprintf("node%d.", i)
		for k, v := range n.sim.Metrics() {
			m[prefix+k] = v
		}
	}
	r.Metrics = m
	return r
}
