package cluster

import (
	"reflect"
	"testing"

	"specpersist/internal/core"
	"specpersist/internal/sched"
	"specpersist/internal/service"
)

// commitRec is one sentinel commit as the event loop sees it: the key the
// node's event is ordered by, and the cycle its acks are stamped with.
type commitRec struct {
	key sched.Key
	now uint64
}

// primaryKeys returns up to n keys in ranges whose primary is node idx.
func primaryKeys(s *fleet, idx, n int) []uint64 {
	var keys []uint64
	for k := uint64(0); len(keys) < n && k < uint64(s.cfg.Keyspace); k++ {
		if s.ring.primary(s.ring.rangeOf(k)) == idx {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestNodeRunIsolation is the claim the run-ahead loop rests on: once a
// node's run is admitted, nothing else the fleet does changes it. One
// VT node's run is timed two ways from the same admission. Run-ahead
// times it to the end in one call (startRun). The other way steps the
// core one Step at a time and applies each sentinel commit on the spot,
// as a cycle-by-cycle loop would, while fleet state changes between the
// steps: new arrivals land in the node's own queue, pending requests are
// deleted, and the rebalancer moves primaryships. Both must give the same
// sentinel commits under the same event keys and cycles, the same drain
// cycle, and the same machine counters.
func TestNodeRunIsolation(t *testing.T) {
	for _, v := range []core.Variant{core.VariantSP, core.VariantLogPSf} {
		t.Run(v.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Structure = "VT"
			cfg.Variant = v
			cfg.Nodes = 4
			cfg.Replicas = 3
			cfg.BatchMax = 3
			cfg.Keyspace = 256
			cfg.Warmup = 64
			cfg.GetFrac = 0
			build := func() (*fleet, *node, uint64) {
				s, err := newFleet(cfg)
				if err != nil {
					t.Fatal(err)
				}
				n := s.nodes[1]
				var at uint64
				for i, k := range primaryKeys(s, n.idx, 10) {
					at = uint64(i) * 100
					s.arrive(i, service.Arrival{At: at, Op: service.Op{Key: k}})
				}
				if len(n.queue) < 2*cfg.BatchMax {
					t.Fatalf("node %d queued only %d items", n.idx, len(n.queue))
				}
				return s, n, at
			}

			// Run-ahead: the loop's view is the effect queue.
			a, na, t0 := build()
			a.startRun(na, t0)
			var want []commitRec
			var wantDrain uint64
			for _, e := range na.effects {
				if e.drain {
					wantDrain = e.at
					continue
				}
				want = append(want, commitRec{sched.Key{T: e.at, Kind: evStep, Idx: na.idx}, e.at})
			}
			if len(want) < 2 || wantDrain == 0 {
				t.Fatalf("run-ahead recorded %d commits and drain %d; want several commits and a drain", len(want), wantDrain)
			}

			// Single steps with the fleet perturbed in between.
			b, nb, _ := build()
			c := nb.sim.Core(0)
			var key sched.Key
			var got []commitRec
			nb.be.BindSentinel(nb.sim, 0, func() {
				got = append(got, commitRec{key, c.Now()})
				b.sentinelCommit(nb, c.Now())
			})
			b.admit(nb, t0)
			extra := primaryKeys(b, nb.idx, 64)
			next := len(extra) / 2
			for step := 0; ; step++ {
				key = sched.Key{T: c.Now(), Kind: evStep, Idx: nb.idx}
				if !nb.sim.StepWhile(0, func() uint64 { return 0 }) {
					break
				}
				switch step % 3 {
				case 0:
					if next < len(extra) {
						b.arrive(1000+step, service.Arrival{At: c.Now(), Op: service.Op{Key: extra[next]}})
						next++
					}
				case 1:
					last := -1
					for id := range b.pending {
						last = max(last, id)
					}
					delete(b.pending, last)
				case 2:
					b.rebalance(c.Now())
				}
			}
			if b.err != nil {
				t.Fatal(b.err)
			}
			if len(nb.queue) == 0 {
				t.Fatal("no arrival reached the busy node's queue")
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("sentinel commits differ:\nsingle steps %v\nrun-ahead    %v", got, want)
			}
			if key.T != wantDrain {
				t.Fatalf("drained at %d single-stepped, %d run ahead", key.T, wantDrain)
			}
			if ma, mb := na.sim.Metrics(), nb.sim.Metrics(); !reflect.DeepEqual(ma, mb) {
				for k := range ma {
					if ma[k] != mb[k] {
						t.Errorf("%s: run-ahead %d, single steps %d", k, ma[k], mb[k])
					}
				}
				t.Fatal("machine counters differ")
			}
		})
	}
}
