// Package sched is the event-pick kernel of the simulators that interleave
// cores (multicore, service, cluster): each scan Adds every pending event
// and the Best one runs. In multicore and service a stepping core keeps
// running while its own key still orders before Next, so one scan pays
// for a batch of steps. The cluster needs no such bound: each node owns
// its machine, so a node's run is timed to its end at once and the scan
// only orders the run's recorded effects.
package sched

import "math"

// Key is one candidate event: its cycle, its kind (lower kinds win
// equal-cycle ties) and its core or node index (lower wins what is left).
// |Kind| and |Idx| must be below 2^31.
type Key struct {
	T    uint64
	Kind int
	Idx  int
}

// Less is the one event order: earliest cycle, then kind, then index. The
// tie-break packs (Kind, Idx) into one comparison, which keeps Less cheap
// enough for Add to inline into the scan loops.
func (k Key) Less(o Key) bool {
	return k.T < o.T || k.T == o.T && int64(k.Kind)<<32+int64(k.Idx) < int64(o.Kind)<<32+int64(o.Idx)
}

// Until returns the first cycle at which an event of k's kind and index no
// longer orders before next: Key{T: t, Kind: k.Kind, Idx: k.Idx}.Less(next)
// holds exactly for t < k.Until(next) (saturating at the largest cycle).
// It is the horizon a stepping core may run to without another scan.
func (k Key) Until(next Key) uint64 {
	if (Key{T: next.T, Kind: k.Kind, Idx: k.Idx}).Less(next) && next.T < math.MaxUint64 {
		return next.T + 1
	}
	return next.T
}

// never orders after every real event.
var never = Key{T: math.MaxUint64, Kind: math.MaxInt32, Idx: math.MaxInt32}

// Pick tracks the best and the runner-up of the keys added since Reset.
type Pick struct{ best, next Key }

// Reset empties the pick; call it before each scan.
func (p *Pick) Reset() { p.best, p.next = never, never }

// Add offers one candidate.
func (p *Pick) Add(k Key) {
	if k.Less(p.next) {
		if k.Less(p.best) {
			p.best, p.next = k, p.best
		} else {
			p.next = k
		}
	}
}

// Ok reports whether any key was added.
func (p *Pick) Ok() bool { return p.best != never }

// Best is the earliest key added.
func (p *Pick) Best() Key { return p.best }

// Next is the runner-up, or a key after every event if Best is alone.
func (p *Pick) Next() Key { return p.next }
