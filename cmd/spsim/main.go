// Command spsim runs one benchmark under one variant and prints the timing
// statistics.
//
// Usage:
//
//	spsim -bench LL -variant SP -scale 0.02 -ssb 256 -seed 1
//	spsim -bench LL -variant SP -json      # machine-readable output
//	spsim -bench BT -variant SP -timeline out.json  # Chrome trace
//	spsim -cores 4 -bench HM -mc-frac 1.0  # multi-core conflict engine
//	spsim -service -rate 300 -batch 8      # storage-server simulation
//	spsim -service -bench VT -batch 8      # versioned COW store serving
//	spsim -cluster -replicas 3 -rate 200   # replicated quorum fleet
//	spsim -list                            # enumerate benchmarks and variants
//
// Benchmarks: GH HM LL SS AT BT RT (paper Table 1).
// Variants:   Base, Log, Log+P, Log+P+Sf, SP (paper Figure 8).
//
// With -cores N (N >= 2) the run switches to the multi-core conflict
// engine: N SP cores over a shared backend, each core's committed stores
// probing the others' BLTs (§4.2.2), with the -mc-* flags dialing the
// conflict rate. -expect-rollbacks makes the exit status assert that at
// least one real coherence rollback occurred (CI smoke).
//
// With -service the run switches to the storage-server simulation
// (internal/service): seeded open-loop arrivals at -rate requests per
// million cycles against the -bench structure, a bounded FIFO per shard
// (-cores shards), optional group commit (-batch, -batch-deadline), and
// per-request durable-commit latency percentiles.
//
// The serving modes also take -bench VT, the versioned copy-on-write tree
// store (internal/vstore): each commit group persists as one changeset
// behind exactly two barriers instead of per-op WAL records, so the
// undo-log -log-cap is refused, and the output adds the changeset-commit
// accounting (commits, versions minted, COW nodes written, time-travel
// reads).
//
// With -cluster the run switches to the replicated fleet (internal/cluster):
// -nodes servers partitioned by a consistent-hash ring, every key range on
// -replicas of them, each update acknowledged only at the -quorum-th
// durable replica, over a seeded network (-net-rtt, -net-jitter), with
// optional crash/recovery (-crash-at, -crash-node, -recover-after) and
// primary rebalancing under skew (-zipf, -rebalance-every). The -chaos-*
// dials (or a -chaos-plan JSON file) inject deterministic network faults —
// drops, duplicates, delay spikes, reorders, partitions, gray nodes —
// against the client robustness stack (-req-deadline, -retry-max,
// -hedge-quantile, -shed-high-water) and heartbeat/lease failure detection
// (-heartbeat-every, -lease-cycles); -audit reports invariant breaches in
// the result instead of failing the run.
//
// The -timeline file is Chrome trace_event JSON: load it at
// chrome://tracing or https://ui.perfetto.dev (1 cycle renders as 1 µs).
//
// Each flag applies to the modes that read it: setting one in a mode that
// ignores it (say -nodes without -cluster) is an error, as is a count or
// cycle value below its lower bound.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"specpersist/internal/chaos"
	"specpersist/internal/cli"
	"specpersist/internal/core"
	"specpersist/internal/multicore"
	"specpersist/internal/obs"
	"specpersist/internal/service"
	"specpersist/internal/workload"
)

// options holds every spsim flag; parse binds each flag to its field.
type options struct {
	Bench, Variant   string
	Scale            float64
	Seed             int64
	SSB, Checkpoints int
	Overhead, Banks  int
	JSON             bool
	Timeline         string
	TimelineCap      int
	List             bool

	Service bool
	// Serving holds the request knobs whose flags bind straight into it;
	// serving adds the rest.
	Serving     service.Serving
	Process     string
	BurstFrac   float64
	BurstPeriod int64
	Deadline    int64

	Cluster        bool
	Nodes          int
	Replicas       int
	Quorum         int
	VNodes         int
	Zipf           float64
	NetRTT         int64
	NetJitter      float64
	CatchupBatch   int
	CrashAt        int64
	CrashNode      int
	RecoverAfter   int64
	RebalanceEvery int64

	// Chaos fabric: either a plan file or the inline fate dials of
	// Chaos; InlineChaos names the dials set explicitly.
	ChaosPlanFile string
	Chaos         chaos.Plan
	InlineChaos   []string

	// Client robustness and failure detection.
	ReqDeadline    int64
	RetryMax       int
	HedgeQuantile  float64
	ShedHighWater  int
	HeartbeatEvery int64
	LeaseCycles    int64
	Audit          bool

	// Cores and MC, the conflict engine's workload dials.
	Cores           int
	MC              multicore.Workload
	ExpectRollbacks bool
}

// The run modes, in the order parse resolves them: -list, then -cluster
// and -service, then the multi-core engine (-cores N >= 2), and otherwise
// one benchmark on one core.
const (
	benchMode cli.Mode = 1 << iota
	multicoreMode
	serviceMode
	clusterMode
	listMode
)

// chaosFateFlags are the inline plan dials; they clash with -chaos-plan
// (the file is the complete plan, mixing the two would silently shadow).
var chaosFateFlags = []string{
	"chaos-seed", "chaos-drop", "chaos-dup", "chaos-delay", "chaos-delay-mult", "chaos-reorder",
}

// newFlags declares every spsim flag, bound to its field of o, with the
// modes that read it.
func newFlags(o *options) *cli.Set {
	// The conflict engine's dials are bound into its default workload.
	o.MC = multicore.DefaultWorkload()
	fs := cli.NewSet("spsim", "-bench", "-cores", "-service", "-cluster", "-list")
	served := serviceMode | clusterMode
	simulated := benchMode | multicoreMode | served
	fs.String(&o.Bench, "bench", "LL", simulated, "benchmark abbreviation (GH HM LL SS AT BT RT; also VT with -service and -cluster)")
	fs.String(&o.Variant, "variant", "SP", simulated&^multicoreMode, "variant: Base, Log, Log+P, Log+P+Sf, SP")
	fs.Float64(&o.Scale, "scale", workload.DefaultScale, benchMode, "scale factor for Table 1 op counts (1.0 = paper)")
	fs.Int64(&o.Seed, "seed", 1, simulated, "operation stream seed")
	fs.Int(&o.SSB, "ssb", 0, simulated, "SSB entries for SP (0 = 256)").Min(0)
	fs.Int(&o.Checkpoints, "checkpoints", 0, benchMode|multicoreMode, "checkpoint buffer entries for SP (0 = 4)").Min(0)
	fs.Int(&o.Overhead, "op-overhead", 0, simulated, "per-op application preamble length (0 = default, -1 = none)")
	fs.Int(&o.Banks, "banks", 0, benchMode|multicoreMode, "NVMM banks (0 = default)")
	fs.Bool(&o.JSON, "json", false, simulated, "emit the result as JSON")
	fs.String(&o.Timeline, "timeline", "", simulated, "write a Chrome trace_event JSON timeline to this file")
	fs.Int(&o.TimelineCap, "timeline-cap", obs.DefaultTimelineCap, simulated, "timeline ring-buffer capacity (events)").Requires("timeline")
	fs.Bool(&o.List, "list", false, listMode, "list valid benchmarks and variants, then exit")

	fs.Bool(&o.Service, "service", false, serviceMode, "run the storage-server simulation (open-loop arrivals, group commit, tail latency)")
	fs.Float64(&o.Serving.Rate, "rate", 50, served, "service: offered load in requests per million cycles")
	fs.String(&o.Process, "process", "poisson", serviceMode, "service: arrival process (poisson, bursty)")
	fs.Float64(&o.BurstFrac, "burst-frac", 0, serviceMode, "service: bursty ON fraction of each period (0 = default 0.25)")
	fs.Int64(&o.BurstPeriod, "burst-period", 0, serviceMode, "service: bursty ON+OFF period in cycles (0 = default 32768)").Min(0)
	fs.Int(&o.Serving.Requests, "requests", 0, served, "service: offered request count (0 = default 256)")
	fs.Int(&o.Serving.Warmup, "warmup", 128, served, "service: functional warmup operations per shard")
	fs.Int(&o.Serving.QueueCap, "queue-cap", 0, served, "service: per-shard FIFO bound (0 = default 64)")
	// The engines read 0 as "default" for -batch, -nodes and -vnodes, but
	// the flag defaults are already explicit, so a 0 here is a mistake.
	fs.Int(&o.Serving.BatchMax, "batch", 1, served, "service: group-commit limit K (1 = no grouping)").Min(1)
	fs.Int64(&o.Deadline, "batch-deadline", 0, served, "service: cycles the queue head waits for co-batching").Min(0)
	fs.Float64(&o.Serving.GetFrac, "get-frac", 0.25, served, "service: fraction of read-only get requests")
	fs.Int(&o.Serving.Keyspace, "keyspace", 0, served, "service: request key range (0 = default 128)")
	fs.Int(&o.Serving.LogCap, "log-cap", 0, served, "service: per-shard undo-log capacity (0 = structure default; not VT)").Min(0)

	fs.Bool(&o.Cluster, "cluster", false, clusterMode, "run the replicated-fleet simulation (sharding, quorum durability, failover)")
	fs.Int(&o.Nodes, "nodes", 3, clusterMode, "cluster: fleet size").Min(1)
	fs.Int(&o.Replicas, "replicas", 2, clusterMode, "cluster: replication factor R")
	fs.Int(&o.Quorum, "quorum", 0, clusterMode, "cluster: write quorum W (0 = majority of R)")
	fs.Int(&o.VNodes, "vnodes", 8, clusterMode, "cluster: virtual nodes per physical node on the hash ring").Min(1)
	fs.Float64(&o.Zipf, "zipf", 0, clusterMode, "cluster: zipfian key-popularity exponent (0 = uniform, else > 1)")
	fs.Int64(&o.NetRTT, "net-rtt", 0, clusterMode, "cluster: inter-node round trip in cycles (0 = default 800)").Min(0)
	fs.Float64(&o.NetJitter, "net-jitter", 0.2, clusterMode, "cluster: per-message latency spread in [0, 1)")
	fs.Int(&o.CatchupBatch, "catchup-batch", 0, clusterMode, "cluster: missed updates fetched per catch-up round trip (0 = default 32)")
	fs.Int64(&o.CrashAt, "crash-at", 0, clusterMode, "cluster: crash -crash-node at this cycle (0 = no crash)").Min(0)
	fs.Int(&o.CrashNode, "crash-node", 0, clusterMode, "cluster: node index to crash")
	fs.Int64(&o.RecoverAfter, "recover-after", 0, clusterMode, "cluster: restart the crashed node this many cycles after the crash (0 = stays down)").Min(0)
	fs.Int64(&o.RebalanceEvery, "rebalance-every", 0, clusterMode, "cluster: primary-rebalancer period in cycles (0 = off)").Min(0)

	fs.String(&o.ChaosPlanFile, "chaos-plan", "", clusterMode, "cluster: replay a chaos.Plan JSON file (clashes with the inline -chaos-* dials)")
	fs.Int64(&o.Chaos.Seed, "chaos-seed", 1, clusterMode, "cluster: chaos fate-stream seed")
	fs.Float64(&o.Chaos.Drop, "chaos-drop", 0, clusterMode, "cluster: per-message drop fraction in [0, 1)")
	fs.Float64(&o.Chaos.Dup, "chaos-dup", 0, clusterMode, "cluster: per-message duplication fraction in [0, 1)")
	fs.Float64(&o.Chaos.Delay, "chaos-delay", 0, clusterMode, "cluster: per-message delay-spike fraction in [0, 1)")
	fs.Float64(&o.Chaos.DelayMult, "chaos-delay-mult", 0, clusterMode, "cluster: delay-spike latency multiplier (0 with -chaos-delay = 10)")
	fs.Float64(&o.Chaos.Reorder, "chaos-reorder", 0, clusterMode, "cluster: per-message reorder fraction in [0, 1)")

	fs.Int64(&o.ReqDeadline, "req-deadline", 0, clusterMode, "cluster: per-request deadline in cycles (0 = 150x the RTT)").Min(0)
	fs.Int(&o.RetryMax, "retry-max", 0, clusterMode, "cluster: idempotent retransmits per update (0 = off)").Min(0)
	fs.Float64(&o.HedgeQuantile, "hedge-quantile", 0, clusterMode, "cluster: hedge updates at this completion-latency quantile (0 = off)")
	fs.Int(&o.ShedHighWater, "shed-high-water", 0, clusterMode, "cluster: shed new requests when the primary queue reaches this depth (0 = off)").Min(0)
	fs.Int64(&o.HeartbeatEvery, "heartbeat-every", 0, clusterMode, "cluster: failure-detector heartbeat period in cycles (0 = 5x the RTT, coarsened so a run ticks at most 65,536 times)").Min(0)
	fs.Int64(&o.LeaseCycles, "lease-cycles", 0, clusterMode, "cluster: failover after this long without hearing from a primary (0 = 4x heartbeat)").Min(0)
	fs.Bool(&o.Audit, "audit", false, clusterMode, "cluster: report the end-of-run audit's violations in the result instead of failing the run on the first")

	fs.Int(&o.Cores, "cores", 0, simulated&^clusterMode, "run the multi-core conflict engine with this many SP cores (0 = single-core); with -service, the shard count").Min(0)
	fs.Float64(&o.MC.SharedFrac, "mc-frac", 0.5, multicoreMode, "multicore: probability an op is a shared-table RMW (conflict dial)")
	fs.Int(&o.MC.SharedLines, "mc-shared-lines", 4, multicoreMode, "multicore: shared-table lines per core")
	fs.Int(&o.MC.Ops, "mc-ops", 48, multicoreMode, "multicore: measured ops per core")
	fs.Int(&o.MC.Warmup, "mc-warmup", 60, multicoreMode, "multicore: private-structure warmup ops per core")
	fs.Bool(&o.MC.Disjoint, "mc-disjoint", false, multicoreMode, "multicore: partition the shared table per core (zero-conflict control)")
	fs.Bool(&o.ExpectRollbacks, "expect-rollbacks", false, multicoreMode, "multicore: exit nonzero unless at least one real rollback occurred")
	return fs
}

// parse binds args to options, resolves the run mode and rejects every
// explicitly set flag the mode does not read or whose value is below its
// bound.
func parse(args []string) (options, cli.Mode, error) {
	var o options
	fs := newFlags(&o)
	if err := fs.Parse(args); err != nil {
		return o, 0, err
	}
	mode := benchMode
	switch {
	case o.List:
		mode = listMode
	case o.Cluster:
		mode = clusterMode
	case o.Service:
		mode = serviceMode
	case o.Cores >= 2:
		mode = multicoreMode
	}
	o.InlineChaos = fs.Given(chaosFateFlags...)
	if err := fs.Check(mode); err != nil {
		return o, mode, err
	}
	// VT commits changesets: it has no undo log for -log-cap to size.
	if o.Bench == "VT" && len(fs.Given("log-cap")) > 0 {
		return o, mode, fmt.Errorf("flags [-log-cap] do not apply to -bench VT (the versioned store keeps no undo log)")
	}
	return o, mode, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spsim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	o, mode, err := parse(args)
	if err != nil {
		return err
	}
	switch mode {
	case listMode:
		list(w)
		return nil
	case clusterMode:
		return runCluster(w, o)
	case serviceMode:
		return runService(w, o)
	case multicoreMode:
		return runMulticore(w, o)
	}
	return runBench(w, o)
}

// newTimeline returns the ring -timeline asks for, nil without one.
func newTimeline(o options) *obs.Timeline {
	if o.Timeline == "" {
		return nil
	}
	return obs.NewTimeline(o.TimelineCap)
}

// writeTimeline writes tl, when non-nil, to the -timeline file as Chrome
// trace_event JSON.
func writeTimeline(o options, tl *obs.Timeline) error {
	if tl == nil {
		return nil
	}
	f, err := os.Create(o.Timeline)
	if err != nil {
		return err
	}
	if err := tl.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	if n := tl.Dropped(); n > 0 {
		log.Printf("timeline ring overflowed: %d oldest events dropped (raise -timeline-cap)", n)
	}
	return f.Close()
}

// jsonOutput is the -json document: the resolved run identity plus the
// full simulation result and the stall attribution derived from its
// metrics snapshot.
type jsonOutput struct {
	Bench   string          `json:"bench"`
	Desc    string          `json:"desc"`
	Variant string          `json:"variant"`
	Scale   float64         `json:"scale"`
	Seed    int64           `json:"seed"`
	Result  workload.Result `json:"result"`
	Stalls  []obs.StallLine `json:"stalls,omitempty"`
}

func list(w io.Writer) {
	fmt.Fprintln(w, "benchmarks:")
	for _, b := range workload.Table1() {
		fmt.Fprintf(w, "  %-3s %s (InitOps %d, SimOps %d)\n", b.Name, b.Desc, b.InitOps, b.SimOps)
	}
	fmt.Fprintln(w, "variants:")
	for _, v := range core.Variants() {
		fmt.Fprintf(w, "  %s\n", v)
	}
}

// runBench runs one benchmark on one core and prints its counters.
func runBench(w io.Writer, o options) error {
	b, err := workload.FindBench(o.Bench)
	if err != nil {
		return err
	}
	v, err := core.ParseVariant(o.Variant)
	if err != nil {
		return err
	}
	var sized []string
	if o.SSB != 0 {
		sized = append(sized, "-ssb")
	}
	if o.Checkpoints != 0 {
		sized = append(sized, "-checkpoints")
	}
	if len(sized) > 0 && !v.Speculative() {
		return fmt.Errorf("%s: variant %s has no SP hardware to size", strings.Join(sized, ", "), v)
	}
	opts := core.DefaultOptions().For(v)
	if o.SSB > 0 {
		opts.CPU.SP.SSBEntries = o.SSB
	}
	if o.Checkpoints > 0 {
		opts.CPU.SP.Checkpoints = o.Checkpoints
	}
	if o.Banks > 0 {
		opts.Mem.Banks = o.Banks
	}
	rc := workload.RunConfig{
		Variant:    v,
		Scale:      o.Scale,
		Seed:       o.Seed,
		OpOverhead: o.Overhead,
		Options:    &opts,
		Timeline:   newTimeline(o),
	}
	job := workload.Job{Bench: b, Config: rc}
	if err := job.Validate(); err != nil {
		return err
	}
	r, err := workload.Run(b, rc)
	if err != nil {
		return err
	}
	if err := writeTimeline(o, rc.Timeline); err != nil {
		return err
	}
	if o.JSON {
		return cli.WriteJSON(w, jsonOutput{
			Bench:   b.Name,
			Desc:    b.Desc,
			Variant: v.String(),
			Scale:   rc.EffectiveScale(),
			Seed:    o.Seed,
			Result:  r,
			Stalls:  obs.StallReport(r.Metrics),
		})
	}
	s := r.Stats
	fmt.Fprintf(w, "benchmark            %s (%s)\n", b.Name, b.Desc)
	fmt.Fprintf(w, "variant              %s\n", v)
	fmt.Fprintf(w, "simulated operations %d\n", r.SimOps)
	fmt.Fprintf(w, "cycles               %d\n", s.Cycles)
	fmt.Fprintf(w, "committed instrs     %d (IPC %.2f)\n", s.Committed, float64(s.Committed)/float64(s.Cycles))
	fmt.Fprintf(w, "fetch-queue stalls   %d cycles\n", s.FetchQStallCycles)
	fmt.Fprintf(w, "loads/stores/ALU     %d / %d / %d\n", s.Loads, s.Stores, s.ALUs)
	fmt.Fprintf(w, "clwb/pcommit/sfence  %d / %d / %d\n", s.Clwbs, s.Pcommits, s.Sfences)
	fmt.Fprintf(w, "max in-flight pcommits %d\n", s.MaxConcurrentPcommits)
	fmt.Fprintf(w, "stores per pcommit   %.1f\n", s.AvgStoresPerPcommit())
	if v.Speculative() {
		fmt.Fprintf(w, "speculation entries  %d (epochs %d)\n", s.SpecEntries, s.SpecEpochs)
		fmt.Fprintf(w, "checkpoint max/stalls %d / %d\n", s.CheckpointsMaxUsed, s.CheckpointStalls)
		fmt.Fprintf(w, "SSB max used         %d (full stalls %d)\n", s.SSBMaxUsed, s.SSBFullStalls)
		fmt.Fprintf(w, "SSB forwards         %d\n", s.SSBForwards)
		fmt.Fprintf(w, "bloom fp rate        %.4f (%d/%d)\n", s.BloomFalsePositiveRate(), s.BloomFalsePositives, s.BloomQueries)
	}
	fmt.Fprintf(w, "L1/L2/L3 miss        %d / %d / %d\n", s.Cache.L1.Misses, s.Cache.L2.Misses, s.Cache.L3.Misses)
	mcs := s.Mem
	fmt.Fprintf(w, "NVMM reads/writes    %d / %d (coalesced %d)\n", mcs.Reads, mcs.Writes, mcs.Coalesced)
	fmt.Fprintf(w, "WPQ max/stalls       %d / %d\n", mcs.WPQMax, mcs.WPQStalls)
	fmt.Fprintf(w, "\n%s", obs.FormatStallReport(r.Metrics))
	return nil
}

// mcJSONOutput is the -json document for a multi-core run.
type mcJSONOutput struct {
	Structure  string          `json:"structure"`
	Cores      int             `json:"cores"`
	SharedFrac float64         `json:"shared_frac"`
	Disjoint   bool            `json:"disjoint"`
	Seed       int64           `json:"seed"`
	Stats      multicore.Stats `json:"stats"`
	Metrics    obs.Snapshot    `json:"metrics"`
}

// runMulticore drives the N-core conflict engine and prints its counters.
func runMulticore(w io.Writer, o options) error {
	wl := o.MC
	wl.Structure = o.Bench
	wl.Cores = o.Cores
	wl.Seed = o.Seed
	wl.OpOverhead = o.Overhead

	cfg := multicore.DefaultConfig()
	if o.SSB > 0 {
		cfg.Options.CPU.SP.SSBEntries = o.SSB
	}
	if o.Checkpoints > 0 {
		cfg.Options.CPU.SP.Checkpoints = o.Checkpoints
	}
	if o.Banks > 0 {
		cfg.Options.Mem.Banks = o.Banks
	}
	cfg.Timeline = newTimeline(o)

	res, err := multicore.RunWorkload(wl, cfg)
	if err != nil {
		return err
	}
	if err := writeTimeline(o, cfg.Timeline); err != nil {
		return err
	}
	st := res.Stats
	if o.JSON {
		if err := cli.WriteJSON(w, mcJSONOutput{
			Structure:  wl.Structure,
			Cores:      wl.Cores,
			SharedFrac: wl.SharedFrac,
			Disjoint:   wl.Disjoint,
			Seed:       wl.Seed,
			Stats:      st,
			Metrics:    res.Metrics,
		}); err != nil {
			return err
		}
	} else {
		rng := "shared"
		if wl.Disjoint {
			rng = "disjoint"
		}
		fmt.Fprintf(w, "multicore            %d cores, %s structure, frac %.2f (%s range)\n",
			wl.Cores, wl.Structure, wl.SharedFrac, rng)
		fmt.Fprintf(w, "probes               %d (filtered %d, delivered %d)\n",
			st.Probes, st.Filtered, st.Delivered)
		fmt.Fprintf(w, "conflicts            %d (deferred %d)\n", st.Conflicts, st.Deferred)
		fmt.Fprintf(w, "rollbacks            %d (%d penalty cycles)\n", st.Rollbacks, st.RollbackCycles)
		for i, cs := range st.PerCore {
			fmt.Fprintf(w, "core %-2d              %d cycles, %d committed, %d rollbacks\n",
				i, cs.Cycles, cs.Committed, cs.Rollbacks)
		}
	}
	if o.ExpectRollbacks && st.Rollbacks == 0 {
		return fmt.Errorf("expected at least one real rollback, saw none (%d probes, %d conflicts)",
			st.Probes, st.Conflicts)
	}
	return nil
}
