// Backend is the exported machine-side building block of one serving
// shard: a displaced address window holding a warmed-up, txn-logged
// persistent structure, plus the group-commit trace-building discipline
// (per-request preamble, optional coalesced persist trio, sentinel store
// marking each commit group's durability point). internal/service wraps
// one Backend per shard; internal/cluster wraps one per fleet node — the
// two layers share exactly this execution recipe, so their latency
// numbers stay comparable.
package service

import (
	"fmt"
	"math/rand"

	"specpersist/internal/cpu"
	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/multicore"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
)

// Op is one keyed storage operation, the request payload shared by the
// service and cluster layers. A Get is a read-only structure search; an
// update applies the benchmark operation (insert-or-delete) for the key.
type Op struct {
	Key uint64 `json:"key"`
	Get bool   `json:"get,omitempty"`
}

// Backend is one shard's (or cluster node's) machine-side state.
type Backend struct {
	Env *exec.Env
	Mgr *txn.Manager
	St  pstruct.Structure
	Buf trace.Buffer

	// Sentinel is the private line whose stores mark commit-group
	// durability points; the harness watches the core's commit events for
	// stores to it.
	Sentinel uint64

	// WarmupPcommits is the functional pcommit count at the end of
	// construction; serving-phase counters report the delta.
	WarmupPcommits uint64

	coalesce bool
	bld      *trace.Builder
}

// NewBackend constructs the backend of shard or node idx of the
// defaults-resolved s, displaced into window index `window` (each window
// is a private 64 MiB region, so two backends sharing one memory system
// never share a line; pass 0 for a private memory system). The structure
// is functionally warmed up from a stream seeded by s.Seed and idx, and
// persisted. reg, when non-nil, receives the pmem and txn counters.
func NewBackend(s Serving, idx, window int, reg *obs.Registry) (*Backend, error) {
	env := exec.New()
	env.Level = s.Variant.Level()
	env.AllocLines(window * shardRegionLines)
	sentinel := env.AllocLines(1)
	mgr := txn.NewManager(env, s.LogCap)
	scfg := pstruct.Config{HashCapacity: 64, GraphVerts: 32, Strings: 16}
	st := pstruct.Build(s.Structure, env, mgr, scfg)

	vt, isVT := st.(*pstruct.VTree)
	if isVT {
		// The versioned store serves in manual group-commit mode: the
		// whole warmup becomes one changeset sealed by a single commit
		// below, and each serving commit group commits once in AppendGroup.
		vt.SetAutoCommit(0)
	}

	rng := rand.New(rand.NewSource(s.Seed + int64(idx)*7919 + 1))
	for i := 0; i < s.Warmup; i++ {
		st.Apply(uint64(rng.Intn(s.Keyspace)))
	}
	if isVT {
		vt.Commit()
	}
	env.M.PersistAll()
	if err := st.Check(); err != nil {
		return nil, fmt.Errorf("service: backend after warmup: %w", err)
	}
	// Group commit (K > 1) coalesces each group's persist barriers. VT's
	// Commit already batches the whole changeset behind two barriers;
	// coalescing (which would defer and reorder them) stays off for it.
	coalesce := s.BatchMax > 1 && !isVT
	if coalesce {
		env.SetBarrierCoalescing(true)
	}
	if reg != nil {
		env.M.Register(reg)
		mgr.Register(reg)
		if isVT {
			vt.S.Register(reg)
		}
	}
	return &Backend{
		Env: env, Mgr: mgr, St: st, Sentinel: sentinel,
		WarmupPcommits: env.M.Stats().Pcommits,
		coalesce:       coalesce,
	}, nil
}

// AppendGroup appends one commit group to the run Admit is building: per
// op an overhead-long dependent-ALU application preamble (none when
// overhead is not positive) then the structure operation, and at the group
// boundary the coalesced persist trio (when coalescing is on) followed by
// the sentinel store that marks the group's durability point.
func (b *Backend) AppendGroup(ops []Op, overhead int) {
	for _, op := range ops {
		b.bld.Chain(overhead)
		if op.Get {
			b.St.Contains(op.Key)
		} else {
			b.St.Apply(op.Key)
		}
	}
	if vt, ok := b.St.(*pstruct.VTree); ok {
		// Group commit for the versioned store: the whole group's changeset
		// persists behind the commit's own two barriers — no per-op WAL
		// records, nothing to coalesce.
		vt.Commit()
	} else if b.coalesce {
		b.Env.FlushBarriers()
	}
	b.bld.Store(b.Sentinel, 8, isa.NoReg, isa.NoReg)
}

// servingPcommits reports the device pcommits issued since warmup ended.
func (b *Backend) servingPcommits() uint64 {
	return b.Env.M.Stats().Pcommits - b.WarmupPcommits
}

// GroupStart is the group-commit start trigger: the cycle at which an idle
// core, free from cycle free, starts a run over its queue of queued
// requests, the oldest enqueued at head and the newest at tail. The
// batch-full trigger fires the moment the batchMax-th request arrives —
// not at the head's arrival, which would start the run in the past — and
// the deadline trigger fires once the head has waited deadline cycles.
// Either way the core must also be free.
func GroupStart(free uint64, queued, batchMax int, head, tail, deadline uint64) uint64 {
	ready := head + deadline
	if queued >= batchMax {
		ready = tail
	}
	return max(free, ready)
}

// BindSentinel subscribes fn to core k's commit stream, firing once per
// committed store to the backend's sentinel line — the durability point
// of each commit group. The service and cluster layers share this single
// durability-timestamp hookup so their completion semantics cannot drift.
func (b *Backend) BindSentinel(sim *multicore.Sim, core int, fn func()) {
	sentinel := b.Sentinel
	sim.OnCoreCommit(core, func(e cpu.CommitEvent) {
		if e.Op == isa.Store && e.Addr == sentinel {
			fn()
		}
	})
}

// FinishReplay seals a functional crash-recovery replay: the versioned
// store commits the replayed changeset (making the restored root durable
// again), then all residual dirty lines are persisted.
func (b *Backend) FinishReplay() {
	if vt, ok := b.St.(*pstruct.VTree); ok {
		vt.Commit()
	}
	b.Env.M.PersistAll()
}
