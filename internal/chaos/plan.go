// Package chaos is the deterministic fault model for the replicated fleet:
// a JSON-serializable Plan that fully determines every network misbehaviour
// of one internal/cluster run. The fabric it parameterizes draws each
// message's fate (drop, duplicate, delay spike, reorder) splitmix-style
// from the plan seed and the message's global send sequence — never from a
// shared rand.Source whose draw order could depend on scheduling — so two
// runs of one (Config, Plan) pair misbehave identically, byte for byte, at
// any sweep worker count. On top of the per-message fates the plan carries
// cycle-windowed structural faults: partitions (a node group cut off from
// the rest, both directions) and gray nodes (a node whose links slow 10 to
// 100 times without the node crashing — the classic gray failure that
// heartbeat detectors mis-diagnose).
//
// The package deliberately knows nothing about internal/cluster: it is the
// pure fault vocabulary, so the cluster engine can consume plans and the
// campaign drivers can generate, serialize, replay and delta-minimize them
// without an import cycle.
package chaos

import (
	"fmt"
	"math"
	"sort"

	"specpersist/internal/splitmix"
)

// MaxSlow bounds a gray window's link-latency multiplier.
const MaxSlow = 100.0

// MaxDelayMult bounds the per-message delay-spike multiplier.
const MaxDelayMult = 100.0

// Partition cuts one node group off from the rest of the fleet for a cycle
// window: every message between a Group member and a non-member whose send
// cycle falls in [From, To) is dropped, in both directions. Heartbeats are
// messages too, so a long partition expires leases and causes failover of
// a perfectly healthy primary — the wrong-suspicion case the no-lost-ack
// checker exists for.
type Partition struct {
	From  uint64 `json:"from"`
	To    uint64 `json:"to"`
	Group []int  `json:"group"`
}

// Gray slows every link of one node by Slow for a cycle window. The node
// keeps executing and committing at full speed — only its messages crawl —
// so it acknowledges late, trips retries and hedges, and may be wrongly
// suspected without ever losing state.
type Gray struct {
	From uint64  `json:"from"`
	To   uint64  `json:"to"`
	Node int     `json:"node"`
	Slow float64 `json:"slow"`
}

// Plan fully determines the fault behaviour of one run. The zero Plan is
// the kind network: no fates fire, no windows are active.
type Plan struct {
	// Seed drives the per-message fate draws, independent of the cluster
	// seed so the same workload can be replayed under many fault schedules.
	Seed int64 `json:"seed"`

	// Per-message fate probabilities, each in [0, 1]. A message draws one
	// fate at most, in the fixed order drop, duplicate, delay, reorder
	// (the draw is a single uniform number against the cumulative ranges),
	// so the fractions must sum to at most 1.
	Drop    float64 `json:"drop,omitempty"`
	Dup     float64 `json:"dup,omitempty"`
	Delay   float64 `json:"delay,omitempty"`
	Reorder float64 `json:"reorder,omitempty"`

	// DelayMult scales a delay-spiked message's one-way latency (must be
	// > 1 when Delay > 0; at most MaxDelayMult).
	DelayMult float64 `json:"delay_mult,omitempty"`

	Partitions []Partition `json:"partitions,omitempty"`
	Grays      []Gray      `json:"grays,omitempty"`
}

// Enabled reports whether the plan can affect any message.
func (p *Plan) Enabled() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || p.Dup > 0 || p.Delay > 0 || p.Reorder > 0 ||
		len(p.Partitions) > 0 || len(p.Grays) > 0
}

// Lossy reports whether the plan can destroy messages outright (drops or
// partitions) — the faults that require deadlines and retries to survive.
func (p *Plan) Lossy() bool {
	if p == nil {
		return false
	}
	return p.Drop > 0 || len(p.Partitions) > 0
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// FateKind is one per-message outcome.
type FateKind uint8

const (
	FateNone    FateKind = iota
	FateDrop             // the message is lost
	FateDup              // a second copy is delivered (own latency draw)
	FateDelay            // one-way latency is multiplied by DelayMult
	FateReorder          // extra latency in [0, RTT) re-sorts the message
)

func (k FateKind) String() string {
	switch k {
	case FateDrop:
		return "drop"
	case FateDup:
		return "dup"
	case FateDelay:
		return "delay"
	case FateReorder:
		return "reorder"
	default:
		return "none"
	}
}

// Fate draws message seq's fate: a single uniform number from
// splitmix.Mix of (seed, seq) tested against the cumulative fraction ranges.
// The extra value returned with FateReorder is a second uniform in [0, 1)
// for the caller to scale into added latency.
func (p *Plan) Fate(seq uint64) (FateKind, float64) {
	if p == nil {
		return FateNone, 0
	}
	u := unit(splitmix.Mix(uint64(p.Seed)*0x9e3779b97f4a7c15 + seq*2 + 1))
	switch {
	case u < p.Drop:
		return FateDrop, 0
	case u < p.Drop+p.Dup:
		return FateDup, 0
	case u < p.Drop+p.Dup+p.Delay:
		return FateDelay, 0
	case u < p.Drop+p.Dup+p.Delay+p.Reorder:
		return FateReorder, unit(splitmix.Mix(uint64(p.Seed)*0x9e3779b97f4a7c15 + seq*2 + 2))
	}
	return FateNone, 0
}

// Partitioned reports whether a message from -> to sent at cycle at crosses
// an active partition cut.
func (p *Plan) Partitioned(from, to int, at uint64) bool {
	if p == nil {
		return false
	}
	for _, w := range p.Partitions {
		if at < w.From || at >= w.To {
			continue
		}
		a, b := false, false
		for _, n := range w.Group {
			if n == from {
				a = true
			}
			if n == to {
				b = true
			}
		}
		if a != b {
			return true
		}
	}
	return false
}

// SlowFactor returns the combined gray-window latency multiplier for a
// message between from and to at cycle at (1 when no window is active;
// multiplicative when both endpoints are gray).
func (p *Plan) SlowFactor(from, to int, at uint64) float64 {
	if p == nil {
		return 1
	}
	f := 1.0
	for _, g := range p.Grays {
		if at < g.From || at >= g.To {
			continue
		}
		if g.Node == from || g.Node == to {
			f *= g.Slow
		}
	}
	return f
}

// Validate rejects plans the fabric would mis-simulate. It never panics,
// whatever the (possibly fuzzer-supplied) field values.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"dup", p.Dup}, {"delay", p.Delay}, {"reorder", p.Reorder}} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("chaos: %s fraction must be in [0,1], got %g", f.name, f.v)
		}
	}
	if sum := p.Drop + p.Dup + p.Delay + p.Reorder; sum > 1 {
		return fmt.Errorf("chaos: fate fractions sum to %g > 1", sum)
	}
	if p.Delay > 0 && !(p.DelayMult > 1) {
		return fmt.Errorf("chaos: delay spikes need a multiplier > 1, got %g", p.DelayMult)
	}
	if math.IsNaN(p.DelayMult) || p.DelayMult < 0 || p.DelayMult > MaxDelayMult {
		return fmt.Errorf("chaos: delay multiplier must be in [0,%g], got %g", MaxDelayMult, p.DelayMult)
	}
	for i, w := range p.Partitions {
		if w.From >= w.To {
			return fmt.Errorf("chaos: partition %d window [%d,%d) is empty", i, w.From, w.To)
		}
		if len(w.Group) == 0 {
			return fmt.Errorf("chaos: partition %d has an empty group", i)
		}
		seen := map[int]bool{}
		for _, n := range w.Group {
			if n < 0 {
				return fmt.Errorf("chaos: partition %d names negative node %d", i, n)
			}
			if seen[n] {
				return fmt.Errorf("chaos: partition %d names node %d twice", i, n)
			}
			seen[n] = true
		}
	}
	for i, g := range p.Grays {
		if g.From >= g.To {
			return fmt.Errorf("chaos: gray %d window [%d,%d) is empty", i, g.From, g.To)
		}
		if g.Node < 0 {
			return fmt.Errorf("chaos: gray %d names negative node %d", i, g.Node)
		}
		if math.IsNaN(g.Slow) || g.Slow < 1 || g.Slow > MaxSlow {
			return fmt.Errorf("chaos: gray %d slow factor must be in [1,%g], got %g", i, MaxSlow, g.Slow)
		}
	}
	return nil
}

// Normalize returns the canonical form of a valid plan: partition groups
// sorted ascending, partitions ordered by (From, To, first group member),
// grays by (From, To, Node), and an unused DelayMult zeroed. Normalizing a
// normalized plan is the identity, so decode -> Normalize -> re-encode is
// a fixed point — the property the fuzz test pins.
func (p Plan) Normalize() Plan {
	q := p
	if q.Delay == 0 {
		q.DelayMult = 0
	}
	q.Partitions = append([]Partition(nil), p.Partitions...)
	for i := range q.Partitions {
		g := append([]int(nil), q.Partitions[i].Group...)
		sort.Ints(g)
		q.Partitions[i].Group = g
	}
	sort.SliceStable(q.Partitions, func(i, j int) bool {
		a, b := q.Partitions[i], q.Partitions[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Group[0] < b.Group[0]
	})
	if len(q.Partitions) == 0 {
		q.Partitions = nil
	}
	q.Grays = append([]Gray(nil), p.Grays...)
	sort.SliceStable(q.Grays, func(i, j int) bool {
		a, b := q.Grays[i], q.Grays[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Node < b.Node
	})
	if len(q.Grays) == 0 {
		q.Grays = nil
	}
	return q
}

// GenPlan draws a campaign trial plan: moderate per-message fate fractions
// and zero to two partition and gray windows inside [0, span) over a fleet
// of n nodes. Everything is a pure function of the seed, so trial i of a
// campaign is the same plan on every machine and worker count.
func GenPlan(seed int64, nodes int, span uint64) Plan {
	h := func(k uint64) uint64 { return splitmix.Mix(uint64(seed)*0x9e3779b97f4a7c15 + k) }
	u := func(k uint64) float64 { return unit(h(k)) }
	p := Plan{
		Seed:  int64(h(0)),
		Drop:  0.12 * u(1),
		Dup:   0.10 * u(2),
		Delay: 0.08 * u(3),
	}
	if p.Delay > 0 {
		p.DelayMult = 2 + 18*u(4)
	}
	p.Reorder = 0.20 * u(5)
	nparts := int(h(6) % 3)
	if nodes < 2 || nodes > 30 {
		nparts = 0 // no strict subset to cut (or too many membership bits)
	}
	for i := 0; i < nparts; i++ {
		k := uint64(10 + 10*i)
		from := uint64(float64(span) * 0.8 * u(k))
		width := uint64(float64(span) * (0.05 + 0.20*u(k+1)))
		// Group: a nonempty strict subset of the fleet, by membership bits.
		var group []int
		bits := h(k+2)%(1<<uint(nodes)-2) + 1
		for n := 0; n < nodes; n++ {
			if bits&(1<<uint(n)) != 0 {
				group = append(group, n)
			}
		}
		p.Partitions = append(p.Partitions, Partition{From: from, To: from + width + 1, Group: group})
	}
	ngrays := int(h(7) % 3)
	if nodes < 1 {
		ngrays = 0
	}
	for i := 0; i < ngrays; i++ {
		k := uint64(50 + 10*i)
		from := uint64(float64(span) * 0.8 * u(k))
		width := uint64(float64(span) * (0.05 + 0.20*u(k+1)))
		p.Grays = append(p.Grays, Gray{
			From: from, To: from + width + 1,
			Node: int(h(k+2) % uint64(nodes)),
			Slow: 10 + (MaxSlow-10)*u(k+3),
		})
	}
	return p.Normalize()
}
