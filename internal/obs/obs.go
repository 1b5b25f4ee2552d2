// Package obs is the simulator's unified observability layer: a
// zero-dependency metric registry with a stable naming scheme, a
// cycle-resolved event timeline exportable as Chrome trace_event JSON, and
// a stall-attribution report that folds the core's retirement-stall
// counters into a "where did the cycles go" table.
//
// Every simulated component (core, cache hierarchy, memory controllers,
// transaction manager, functional persistence model) registers its counters
// into one Registry at construction; Registry.Snapshot then exposes the
// whole machine's state as a flat map under stable dotted keys
// ("cpu.stall.fence_cycles", "mem.wpq.stalls", ...). Recording is nil-safe
// and off by default: a nil *Timeline drops every event at a single branch,
// so the hot simulation loops pay nothing when tracing is disabled.
package obs

import (
	"fmt"
	"sort"
)

// Snapshot is a point-in-time copy of every registered metric, keyed by the
// stable dotted metric name. It marshals deterministically: encoding/json
// sorts map keys, so two identical simulations produce byte-identical
// serialized snapshots.
type Snapshot map[string]uint64

// Keys returns the metric names in sorted order.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Registry holds one simulated machine's metrics. Components register
// either owned Counters or read-callbacks (for counters that live in
// existing component state); Snapshot reads them all. The zero value is
// unusable; call NewRegistry. All methods are nil-safe so optional
// observers can be threaded through without conditionals: registering on a
// nil Registry is a no-op and a nil Registry snapshots empty.
type Registry struct {
	names []string
	read  map[string]func() uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{read: make(map[string]func() uint64)}
}

// RegisterFunc registers a metric whose value is read on demand at snapshot
// time. Registering the same name twice panics: duplicate keys are always a
// component wiring bug, and catching them at construction keeps Snapshot
// keys unambiguous.
func (r *Registry) RegisterFunc(name string, read func() uint64) {
	if r == nil {
		return
	}
	if _, dup := r.read[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.names = append(r.names, name)
	r.read[name] = read
}

// Keys returns every registered metric name in sorted order.
func (r *Registry) Keys() []string {
	if r == nil {
		return nil
	}
	keys := append([]string(nil), r.names...)
	sort.Strings(keys)
	return keys
}

// Snapshot reads every registered metric. The result is independent of
// registration order.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	s := make(Snapshot, len(r.read))
	for name, read := range r.read {
		s[name] = read()
	}
	return s
}
