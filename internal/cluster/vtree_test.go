package cluster

import "testing"

// TestVTreeFleetCrashRecovery runs the replicated fleet over the versioned
// COW store and crashes a node mid-run: recovery rebuilds the node's store
// by replaying the durable op log as one changeset sealed by
// Backend.FinishReplay, so the rejoined node must pass invariants and end
// live. This is the path where a bare PersistAll would leave the store's
// root selector pointing at the pre-replay version.
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
