// Concurrent workload generation for the conflict engine. Each core runs
// its own transactional data structure in a private address window, plus a
// shared record table whose lines are the conflict surface: a seeded dial
// (SharedFrac) sets how often an operation is a transactional RMW on a
// shared line instead of a private structure update. Disjoint mode keeps
// the same instruction mix but partitions the table per core, so the same
// seed produces zero cross-core conflicts — the experiment's control.
package multicore

import (
	"fmt"
	"math/rand"

	"specpersist/internal/cpu"
	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
)

// Workload parameterizes one multi-core run.
type Workload struct {
	// Structure names the per-core private benchmark (pstruct.Names();
	// "" means HM).
	Structure string
	Cores     int
	// Ops is the measured (traced) operation count per core.
	Ops int
	// Warmup populates each core's private structure functionally first.
	Warmup int
	// SharedLines sizes each core's slice of the shared record table; the
	// table holds Cores*SharedLines lines in total.
	SharedLines int
	// SharedFrac is the conflict-rate dial: the probability that an
	// operation is a transactional RMW on a shared-table line rather than
	// a private structure update.
	SharedFrac float64
	// Disjoint restricts each core's shared-table RMWs to its own slice:
	// the identical instruction mix with zero overlapping addresses.
	Disjoint bool
	Seed     int64
	// Keyspace bounds the private structures' operation keys.
	Keyspace int
	// OpOverhead is the dependent-ALU preamble per operation (application
	// work); 0 means the default, negative disables.
	OpOverhead int
	// LogCap sizes each core's undo log (0 means a default fitting the
	// structure).
	LogCap int
}

// DefaultWorkload returns the harness-scale conflict workload: a 2-core
// hash map with a small shared table at a 50% conflict dial.
func DefaultWorkload() Workload {
	return Workload{
		Structure:   "HM",
		Cores:       2,
		Ops:         48,
		Warmup:      60,
		SharedLines: 4,
		SharedFrac:  0.5,
		Seed:        1,
		Keyspace:    48,
	}
}

// defaultOpOverhead is the per-operation serial preamble at multicore
// harness scale — enough application work that persist barriers overlap
// real execution (so speculation windows open), small enough that N-core
// sweeps stay fast.
const defaultOpOverhead = 200

func (w Workload) effOpOverhead() int {
	if w.OpOverhead < 0 {
		return 0
	}
	if w.OpOverhead == 0 {
		return defaultOpOverhead
	}
	return w.OpOverhead
}

func (w Workload) effLogCap() int {
	if w.LogCap > 0 {
		return w.LogCap
	}
	return pstruct.DefaultLogCap(w.Structure)
}

// coreRegionLines is each core's private address window, in cache lines
// (64 MiB of address space — allocation is a bump pointer over lazily
// backed pages, so the displacement itself costs nothing).
const coreRegionLines = 1 << 20

// RunResult is the outcome of one multi-core run.
type RunResult struct {
	Workload Workload
	Stats    Stats
	// Metrics is the unified snapshot: multicore.* and shared-backend
	// counters, plus per-core counters under "coreN." prefixes.
	Metrics obs.Snapshot
	// CommitLogs holds each core's committed-effect stream (determinism
	// checks compare these byte for byte across reruns).
	CommitLogs [][]cpu.CommitEvent
}

// RunWorkload generates each core's trace (single-threaded, seeded), then
// simulates the interleaved machine with real coherence probes.
func RunWorkload(w Workload, cfg Config) (RunResult, error) {
	if w.Cores <= 0 {
		return RunResult{}, fmt.Errorf("multicore: core count must be positive, got %d", w.Cores)
	}
	if w.Structure == "" {
		w.Structure = "HM"
	}
	if w.SharedLines <= 0 {
		return RunResult{}, fmt.Errorf("multicore: SharedLines must be positive, got %d", w.SharedLines)
	}
	if w.SharedFrac < 0 || w.SharedFrac > 1 {
		return RunResult{}, fmt.Errorf("multicore: SharedFrac must be in [0,1], got %g", w.SharedFrac)
	}
	if w.Keyspace <= 0 {
		w.Keyspace = 48
	}
	cfg.Cores = w.Cores

	sim := New(cfg)
	srcs := make([]trace.Source, w.Cores)
	bufs := make([]*trace.Buffer, w.Cores)
	for k := 0; k < w.Cores; k++ {
		buf, err := buildCoreTrace(w, k, sim.Registry(k))
		if err != nil {
			return RunResult{}, err
		}
		bufs[k] = buf
		srcs[k] = buf
		sim.Core(k).EnableCommitLog()
	}
	stats := sim.Run(srcs)

	res := RunResult{Workload: w, Stats: stats, Metrics: sim.Metrics()}
	for k := 0; k < w.Cores; k++ {
		res.CommitLogs = append(res.CommitLogs, sim.Core(k).CommitLog())
	}
	return res, nil
}

// buildCoreTrace functionally executes core k's operation stream and
// materializes it into a seekable trace buffer (rollback rewinds it).
func buildCoreTrace(w Workload, k int, reg *obs.Registry) (*trace.Buffer, error) {
	env := exec.New()
	env.Level = exec.LevelFull

	// Shared record table first: fresh allocators give every core the
	// identical table addresses — the only overlap across cores.
	tableLines := w.Cores * w.SharedLines
	tableBase := env.AllocLines(tableLines)
	// Displace everything else (undo log, private structure) into core
	// k's own window so private traffic can never conflict.
	env.AllocLines(k * coreRegionLines)

	mgr := txn.NewManager(env, w.effLogCap())
	scfg := pstruct.Config{HashCapacity: 64, GraphVerts: 32, Strings: 16}
	st := pstruct.Build(w.Structure, env, mgr, scfg)

	rng := rand.New(rand.NewSource(w.Seed + int64(k)*7919))
	key := func() uint64 { return uint64(rng.Intn(w.Keyspace)) }
	for i := 0; i < w.Warmup; i++ {
		st.Apply(key())
	}
	// Seed the shared table's durable image too (functionally; values are
	// per-core — the timing model only shares addresses).
	for i := 0; i < tableLines; i++ {
		env.M.WriteU64(tableBase+uint64(i*mem.LineSize), uint64(i))
	}
	env.M.PersistAll()
	if err := st.Check(); err != nil {
		return nil, fmt.Errorf("multicore: core %d after warmup: %w", k, err)
	}

	buf := &trace.Buffer{}
	bld := trace.NewBuilder(buf)
	env.SetBuilder(bld)
	overhead := w.effOpOverhead()
	for i := 0; i < w.Ops; i++ {
		bld.Chain(overhead)
		if rng.Float64() < w.SharedFrac {
			var line int
			if w.Disjoint {
				line = k*w.SharedLines + rng.Intn(w.SharedLines)
			} else {
				line = rng.Intn(tableLines)
			}
			sharedRMW(env, mgr, tableBase+uint64(line*mem.LineSize))
		} else {
			st.Apply(key())
		}
	}
	env.SetBuilder(nil)
	if err := st.Check(); err != nil {
		return nil, fmt.Errorf("multicore: core %d after ops: %w", k, err)
	}

	env.M.Register(reg)
	mgr.Register(reg)
	return buf, nil
}

// sharedRMW performs one failure-safe read-modify-write of a shared-table
// line: undo-log it, bump its counter, persist — the §3.1 transaction in
// miniature, so every shared touch crosses persist barriers and lands in
// the speculative window of the SP machine.
func sharedRMW(env *exec.Env, mgr *txn.Manager, addr uint64) {
	tx := mgr.MustBegin()
	tx.Log(addr, 8, isa.NoReg)
	tx.SetLogged()
	v, r := env.LoadU64(addr, isa.NoReg)
	sum := env.Compute(r)
	env.StoreU64(addr, v+1, sum, isa.NoReg)
	env.Clwb(addr)
	tx.Touch(addr, 8)
	tx.Commit()
}
