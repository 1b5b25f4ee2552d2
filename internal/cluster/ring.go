// Consistent-hash ring with virtual nodes. Each physical node projects
// VNodes points onto the 64-bit hash circle; the arc ending at a point is
// one key range, owned by the point's node (the initial primary) plus the
// next R-1 distinct nodes clockwise (the replicas). Virtual nodes keep the
// per-node load share near-uniform and make the ownership map stable under
// membership churn; the cluster layer additionally moves primaryship
// within an owner set (failover, rebalancing) without changing the set
// itself, which keeps replica placement — and therefore durability — fixed
// while traffic shifts.
package cluster

import (
	"fmt"
	"sort"

	"specpersist/internal/splitmix"
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	hash uint64
	node int
}

// Ring is the partition map: numRanges() = nodes*vnodes key ranges, each
// with a fixed owner set and a mutable primary.
type Ring struct {
	points    []ringPoint
	owners    [][]int // per range: distinct owner nodes, clockwise order
	owned     [][]int // per node: ranges it owns, ascending
	primaries []int   // per range: current primary (always an owner)
}

// newRing builds the partition map for nodes physical nodes with vnodes
// virtual nodes each and replication factor replicas (1 <= replicas <=
// nodes). The layout is a pure function of its arguments.
func newRing(nodes, vnodes, replicas int) *Ring {
	if nodes < 1 || vnodes < 1 || replicas < 1 || replicas > nodes {
		panic(fmt.Sprintf("cluster: invalid ring shape nodes=%d vnodes=%d replicas=%d", nodes, vnodes, replicas))
	}
	r := &Ring{owned: make([][]int, nodes)}
	for n := 0; n < nodes; n++ {
		for v := 0; v < vnodes; v++ {
			h := splitmix.Mix(uint64(n)<<32 | uint64(v) + 0x9e3779b97f4a7c15)
			r.points = append(r.points, ringPoint{hash: h, node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	for i, p := range r.points {
		owners := []int{p.node}
		for step := 1; len(owners) < replicas; step++ {
			cand := r.points[(i+step)%len(r.points)].node
			dup := false
			for _, o := range owners {
				if o == cand {
					dup = true
				}
			}
			if !dup {
				owners = append(owners, cand)
			}
		}
		for _, o := range owners {
			r.owned[o] = append(r.owned[o], i)
		}
		r.owners = append(r.owners, owners)
		r.primaries = append(r.primaries, p.node)
	}
	return r
}

// numRanges returns the range count.
func (r *Ring) numRanges() int { return len(r.points) }

// rangeOf maps a key to its range: the first ring point at or after the
// key's hash, wrapping at the top of the circle.
func (r *Ring) rangeOf(key uint64) int {
	h := splitmix.Mix(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// ownersOf returns range rid's fixed owner set (clockwise order; do not
// mutate).
func (r *Ring) ownersOf(rid int) []int { return r.owners[rid] }

// isOwner reports whether node owns range rid.
func (r *Ring) isOwner(rid, node int) bool {
	for _, o := range r.owners[rid] {
		if o == node {
			return true
		}
	}
	return false
}

// primary returns range rid's current primary.
func (r *Ring) primary(rid int) int { return r.primaries[rid] }

// setPrimary moves range rid's primaryship to node, which must already be
// in the owner set (replica placement never changes).
func (r *Ring) setPrimary(rid, node int) {
	if !r.isOwner(rid, node) {
		panic(fmt.Sprintf("cluster: node %d is not an owner of range %d", node, rid))
	}
	r.primaries[rid] = node
}

// rangesOwnedBy returns every range whose owner set holds node, ascending
// (fixed at newRing; do not mutate).
func (r *Ring) rangesOwnedBy(node int) []int { return r.owned[node] }
