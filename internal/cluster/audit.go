// End-of-run invariant auditor: the fleet's one checker. Every run ends
// here. Breaches are classified as Violations; RunAudited returns them in
// the Result, so chaos campaigns can count, report and delta-minimize them
// (including the deliberately broken-dedup negative control), and Run
// fails on the first one, so a plain run never returns numbers built on a
// breach.
package cluster

import "fmt"

// MaxViolations bounds how many violations one audit keeps in detail;
// Total always counts all of them.
const MaxViolations = 32

// Violation is one invariant breach found by the end-of-run audit.
type Violation struct {
	// Kind: "lost-ack" (an acknowledged update is absent from an acker's
	// durable image), "double-apply" (one sequence durably applied twice
	// on one node), "order" (a node's durable log does not apply exactly
	// the next sequence of a range), "structure" (a node's persistent
	// structure failed its invariant check), and, on lossless plans only,
	// "unrecovered" (a node never finished catching up) and "short-log"
	// (a live owner has not durably applied its range's full log).
	Kind   string `json:"kind"`
	Node   int    `json:"node"`
	Rid    int    `json:"rid"`
	Seq    uint64 `json:"seq,omitempty"`
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at node %d range %d seq %d: %s", v.Kind, v.Node, v.Rid, v.Seq, v.Detail)
}

// Audit is the checker's report for one run.
type Audit struct {
	// Checked counts the quorum-acknowledged updates audited for
	// durability (each against every owner whose ack was counted).
	Checked int `json:"checked"`
	// Total counts all violations found; Violations keeps the first
	// MaxViolations in detail.
	Total      int         `json:"total_violations"`
	Violations []Violation `json:"violations,omitempty"`
}

// Clean reports a violation-free run.
func (a *Audit) Clean() bool { return a.Total == 0 }

// err is nil for a clean audit and otherwise names the first violation.
func (a *Audit) err() error {
	if a.Clean() {
		return nil
	}
	return fmt.Errorf("cluster: %d invariant violations, first: %s", a.Total, a.Violations[0])
}

func (a *Audit) add(v Violation) {
	a.Total++
	if len(a.Violations) < MaxViolations {
		a.Violations = append(a.Violations, v)
	}
}

// audit checks the finished fleet:
//
//  1. No lost ack: every quorum-acknowledged update is in the durable
//     in-order image of every node whose ack completed it (a superset of
//     the read-quorum property: if each acker holds it, any read quorum
//     intersecting the write quorum sees it). Crashed nodes are audited
//     too — their durable image survived the crash by definition.
//  2. Idempotency: no (range, sequence) is durably applied twice on one
//     node, however many duplicates, retries and hedges the network and
//     client machinery produced.
//  3. Order: each node's durable log applies exactly the next sequence
//     of each range — primary handoffs may interleave ranges, but never
//     skip or reorder one range's updates.
//  4. Structure: every node that is not down passes its structure's
//     invariant check (a broken dedup corrupts state through a perfectly
//     healthy engine).
//  5. Full replication, on lossless plans only: every node that is not
//     down has rejoined, and has durably applied every owned range's
//     full log. A lossy plan can starve a catch-up or leave a replica
//     short of a trailing drop without breaking anything acknowledged.
func (s *fleet) audit() Audit {
	a := Audit{Checked: len(s.completed)}
	for _, rec := range s.completed {
		for _, acker := range rec.ackedBy {
			if held := s.nodes[acker].appliedDur[rec.rid]; held <= rec.seq {
				a.add(Violation{
					Kind: "lost-ack", Node: acker, Rid: rec.rid, Seq: rec.seq,
					Detail: fmt.Sprintf("acked but durable prefix holds only %d", held),
				})
			}
		}
	}
	type rs struct {
		rid int
		seq uint64
	}
	lossless := !s.cfg.Chaos.Lossy()
	for _, n := range s.nodes {
		seen := make(map[rs]bool, len(n.durableOps))
		next := map[int]uint64{} // per range: the sequence the log must apply next
		for _, op := range n.durableOps {
			k := rs{op.rid, op.seq}
			switch {
			case seen[k]:
				a.add(Violation{
					Kind: "double-apply", Node: n.idx, Rid: op.rid, Seq: op.seq,
					Detail: "sequence durably applied twice (dedup broken)",
				})
			case op.seq < next[op.rid]:
				a.add(Violation{
					Kind: "order", Node: n.idx, Rid: op.rid, Seq: op.seq,
					Detail: fmt.Sprintf("durable log regressed below %d", next[op.rid]-1),
				})
			default:
				if op.seq > next[op.rid] {
					a.add(Violation{
						Kind: "order", Node: n.idx, Rid: op.rid, Seq: op.seq,
						Detail: fmt.Sprintf("durable log skipped: expected seq %d", next[op.rid]),
					})
				}
				next[op.rid] = op.seq + 1
			}
			seen[k] = true
		}
		if n.state == stateCrashed {
			continue // down for the rest of the run; its durable prefix stands
		}
		if err := n.be.St.Check(); err != nil {
			a.add(Violation{Kind: "structure", Node: n.idx, Detail: err.Error()})
		}
		if !lossless {
			continue
		}
		if n.state == stateRecovering {
			a.add(Violation{Kind: "unrecovered", Node: n.idx, Detail: "never finished catching up"})
			continue
		}
		for _, rid := range s.ring.rangesOwnedBy(n.idx) {
			if got, want := n.appliedDur[rid], uint64(len(s.rangeLog[rid])); got != want {
				a.add(Violation{
					Kind: "short-log", Node: n.idx, Rid: rid,
					Detail: fmt.Sprintf("%d of %d updates durably applied", got, want),
				})
			}
		}
	}
	return a
}
