package cluster

import (
	"strings"
	"testing"

	"specpersist/internal/mem"
	"specpersist/internal/vstore"
)

// TestVTreeFleetCrashRecovery runs the replicated fleet over the versioned
// COW store and crashes a node mid-run: recovery rebuilds the node's store
// by replaying the durable op log as one changeset, a second warm-up that
// commits it, so the rejoined node must pass invariants and end live.
// This is the path where a bare PersistAll would leave the store's root
// selector pointing at the pre-replay version.
func TestVTreeFleetCrashRecovery(t *testing.T) {
	cfg := quickConfig()
	cfg.Structure = "VT"
	cfg.Requests = 256
	cfg.Rate = 400
	cfg.Replicas = 3
	cfg.Quorum = 2
	cfg.BatchMax = 4
	cfg.BatchDeadline = 4000
	cfg.CrashAt = 250_000
	cfg.CrashNode = 1
	cfg.RecoverAfter = 200_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	st := res.Stats
	if st.Crashes != 1 || st.Rejoins != 1 {
		t.Fatalf("crashes %d rejoins %d, want 1/1", st.Crashes, st.Rejoins)
	}
	if res.PerNode[1].State != "live" {
		t.Fatalf("node 1 ended %s, want live", res.PerNode[1].State)
	}
	if !accounted(st) {
		t.Fatalf("accounting broken: %+v", st)
	}
	// What the crash strands at its primary times out; nothing is refused.
	if st.TimedOut == 0 || st.Unavailable != 0 {
		t.Fatalf("%d timed out, %d unavailable; want some timed out, none unavailable", st.TimedOut, st.Unavailable)
	}
	if res.Metrics["node0.core0.vstore.commits"] == 0 {
		t.Fatal("fleet nodes issued no changeset commits")
	}
}

// TestVTreeCrashRecoveryReadsHeader corrupts the durable manifest pointer
// in a VT node's store header before the node crashes. The crash must
// recover the way the versioned store logs, through its header, selector
// and manifest, so the run fails and names the node. Undo-log recovery
// and the committed version's invariant check never read the header, and
// would let the run end clean.
func TestVTreeCrashRecoveryReadsHeader(t *testing.T) {
	cfg := quickConfig()
	cfg.Structure = "VT"
	cfg.Replicas = 2
	cfg.Quorum = 1
	cfg.BatchMax = 4
	cfg.BatchDeadline = 4000
	cfg.CrashAt = 120_000
	cfg.CrashNode = 1
	cfg.RecoverAfter = 150_000
	s, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The store's header is the line whose manifest pointer names the
	// next line and whose capacity is the manifest's; it lies above the
	// node's sentinel and undo log.
	pm := s.nodes[1].be.Env.M
	hdr := uint64(0)
	for a := s.nodes[1].be.Sentinel; a < s.nodes[1].be.Sentinel+1<<20; a += mem.LineSize {
		if pm.ReadU64(a+8) == a+mem.LineSize && pm.ReadU64(a+16) == vstore.DefaultVersions {
			hdr = a
			break
		}
	}
	if hdr == 0 {
		t.Fatal("no versioned-store header found on node 1")
	}
	pm.WriteU64(hdr+8, hdr+2*mem.LineSize)
	pm.PersistAll()

	err = s.loop(s.cfg.arrivals())
	if err == nil {
		t.Fatalf("corrupt manifest pointer recovered clean (audit: %+v)", s.audit().Violations)
	}
	if !strings.Contains(err.Error(), "node 1") || !strings.Contains(err.Error(), "header corrupt") {
		t.Fatalf("run failed as %v, want node 1's header corruption", err)
	}
}
