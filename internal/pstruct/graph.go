package pstruct

import (
	"fmt"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/txn"
)

// Graph layout: a vertex table with one 64-byte line per vertex and
// adjacency lists of 64-byte edge nodes.
//
// Vertex line: [0] head edge pointer, [8] degree.
// Edge node:   [0] destination vertex, [8] next edge pointer.
const (
	gvHead   = 0
	gvDegree = 8

	geTo   = 0
	geNext = 8
)

// Graph is the persistent directed-graph benchmark (GH): operations insert
// or delete edges in adjacency lists.
type Graph struct {
	base
	hdr      uint64 // [0] vertex table ptr, [8] vertex count, [16] edge count
	vertices uint64
	nv       uint64
}

// NewGraph creates a graph with nv vertices and no edges. mgr may be nil
// for the baseline variant.
func NewGraph(env *exec.Env, mgr *txn.Manager, nv int) *Graph {
	if nv <= 0 {
		panic("pstruct: graph needs at least one vertex")
	}
	g := &Graph{base: base{env: env, mgr: mgr}, nv: uint64(nv)}
	g.hdr = env.AllocLines(1)
	g.vertices = env.AllocLines(nv)
	env.M.WriteU64(g.hdr+0, g.vertices)
	env.M.WriteU64(g.hdr+8, uint64(nv))
	return g
}

// Name returns the benchmark abbreviation.
func (g *Graph) Name() string { return "GH" }

// Size returns the number of edges.
func (g *Graph) Size() int { return int(g.env.M.ReadU64(g.hdr + 16)) }

// edgeFromKey derives the (from, to) pair for an operation key.
func (g *Graph) edgeFromKey(key uint64) (u, v uint64) {
	u = key % g.nv
	v = (key / g.nv) % g.nv
	return u, v
}

// search walks vertex u's adjacency list for an edge to v, emitting
// pointer-chasing loads. Returns the link slot pointing at the edge (or at
// the list end), the edge address (0 if absent), and a dependence register.
func (g *Graph) search(u, v uint64) (linkSlot, edge uint64, dep isa.Reg) {
	vline := g.vertices + u*mem.LineSize
	g.cmp() // index computation for the vertex line
	linkSlot = vline + gvHead
	cur, dep := g.ld(linkSlot, isa.NoReg)
	for cur != 0 {
		to, tr := g.ld(cur+geTo, dep)
		g.cmp(tr)
		if to == v {
			return linkSlot, cur, dep
		}
		linkSlot = cur + geNext
		cur, dep = g.ld(linkSlot, dep)
	}
	return linkSlot, 0, dep
}

// Apply deletes the edge derived from key if present, inserts it otherwise.
func (g *Graph) Apply(key uint64) {
	u, v := g.edgeFromKey(key)
	vline := g.vertices + u*mem.LineSize
	linkSlot, edge, dep := g.search(u, v)
	tx := g.begin()
	if edge != 0 {
		tx.Log(linkSlot, 8, dep)
		tx.Log(vline, 16, isa.NoReg)
		tx.Log(g.hdr, 24, isa.NoReg)
		tx.SetLogged()
		next, nr := g.ld(edge+geNext, dep)
		g.st(tx, linkSlot, next, nr, dep)
		deg, dr := g.ld(vline+gvDegree, isa.NoReg)
		g.st(tx, vline+gvDegree, deg-1, g.cmp(dr), isa.NoReg)
		ec, er := g.ld(g.hdr+16, isa.NoReg)
		g.st(tx, g.hdr+16, ec-1, g.cmp(er), isa.NoReg)
		tx.Commit()
		return
	}
	// Insert at the head of u's list.
	tx.Log(vline, 16, isa.NoReg)
	tx.Log(g.hdr, 24, isa.NoReg)
	tx.SetLogged()
	n := g.allocNode(tx)
	head, hr := g.ld(vline+gvHead, isa.NoReg)
	g.st(tx, n+geTo, v, isa.NoReg, isa.NoReg)
	g.st(tx, n+geNext, head, hr, isa.NoReg)
	g.st(tx, vline+gvHead, n, isa.NoReg, isa.NoReg)
	deg, dr := g.ld(vline+gvDegree, isa.NoReg)
	g.st(tx, vline+gvDegree, deg+1, g.cmp(dr), isa.NoReg)
	ec, er := g.ld(g.hdr+16, isa.NoReg)
	g.st(tx, g.hdr+16, ec+1, g.cmp(er), isa.NoReg)
	tx.Commit()
}

// Contains reports whether the edge derived from key is present.
func (g *Graph) Contains(key uint64) bool {
	u, v := g.edgeFromKey(key)
	_, edge, _ := g.search(u, v)
	return edge != 0
}

// Check validates the graph: per-vertex degree matches the list length,
// adjacency lists contain no duplicate destinations, and the edge count
// matches the sum of degrees.
func (g *Graph) Check() error {
	m := g.env.M
	var total uint64
	for u := uint64(0); u < g.nv; u++ {
		vline := g.vertices + u*mem.LineSize
		deg := m.ReadU64(vline + gvDegree)
		seen := make(map[uint64]struct{})
		var n uint64
		for cur := m.ReadU64(vline + gvHead); cur != 0; cur = m.ReadU64(cur + geNext) {
			to := m.ReadU64(cur + geTo)
			if to >= g.nv {
				return fmt.Errorf("graph: vertex %d has edge to invalid %d", u, to)
			}
			if _, dup := seen[to]; dup {
				return fmt.Errorf("graph: duplicate edge %d->%d", u, to)
			}
			seen[to] = struct{}{}
			n++
			if n > deg+1 {
				return fmt.Errorf("graph: vertex %d list longer than degree %d", u, deg)
			}
		}
		if n != deg {
			return fmt.Errorf("graph: vertex %d degree %d but %d edges", u, deg, n)
		}
		total += n
	}
	if ec := m.ReadU64(g.hdr + 16); total != ec {
		return fmt.Errorf("graph: %d edges walked, header says %d", total, ec)
	}
	return nil
}

var _ Structure = (*Graph)(nil)
