package cluster

import (
	"strings"
	"testing"
)

// finishedFleet simulates cfg up to the end-of-run audit, so a test can
// seed a bug into the finished state before auditing it.
func finishedFleet(t *testing.T, cfg Config) *fleet {
	t.Helper()
	s, err := newFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.loop(s.cfg.arrivals()); err != nil {
		t.Fatal(err)
	}
	if a := s.audit(); !a.Clean() {
		t.Fatalf("unseeded fleet audited dirty: %+v", a.Violations)
	}
	return s
}

// auditErr runs Run's end-of-run path on s and requires it to fail with
// a violation of the given kind.
func auditErr(t *testing.T, s *fleet, kind string) {
	t.Helper()
	a := s.audit()
	err := a.err()
	if err == nil {
		t.Fatalf("seeded %s bug audited clean", kind)
	}
	if a.Violations[0].Kind != kind || !strings.Contains(err.Error(), kind) {
		t.Fatalf("seeded %s bug failed as %v", kind, err)
	}
}

// sameRangePair returns a node of s and the indices i < j of two entries
// of one range in its durable log.
func sameRangePair(t *testing.T, s *fleet) (n *node, i, j int) {
	t.Helper()
	for _, n := range s.nodes {
		last := map[int]int{} // range -> index of its latest durable entry
		for j, op := range n.durableOps {
			if i, ok := last[op.rid]; ok {
				return n, i, j
			}
			last[op.rid] = j
		}
	}
	t.Fatal("no node durably applied two updates of one range")
	return nil, 0, 0
}

// TestAuditCatchesDurableOrderBugs: a node's durable log with two
// same-range entries swapped, or with one entry missing, after the run
// leaves every durable prefix, every ack and every structure intact, so
// only the order rule sees it.
func TestAuditCatchesDurableOrderBugs(t *testing.T) {
	s := finishedFleet(t, DefaultConfig())
	n, i, j := sameRangePair(t, s)
	n.durableOps[i], n.durableOps[j] = n.durableOps[j], n.durableOps[i]
	auditErr(t, s, "order")

	s = finishedFleet(t, DefaultConfig())
	n, i, _ = sameRangePair(t, s)
	n.durableOps = append(n.durableOps[:i], n.durableOps[i+1:]...)
	auditErr(t, s, "order")
}

// TestAuditCatchesKindWorldBreaches: on a lossless plan, a node left
// recovering and an owner short of its range's log are violations.
func TestAuditCatchesKindWorldBreaches(t *testing.T) {
	s := finishedFleet(t, DefaultConfig())
	s.nodes[1].state = stateRecovering
	auditErr(t, s, "unrecovered")

	s = finishedFleet(t, DefaultConfig())
	s.rangeLog[0] = append(s.rangeLog[0], logEntry{})
	auditErr(t, s, "short-log")
}
