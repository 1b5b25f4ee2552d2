package litmus

import (
	"fmt"
	"slices"
	"sort"

	"specpersist/internal/isa"
)

// This file keeps the straight-line explorers the memoized kernel
// replaced, as test oracles: each BFS copies the 194-byte image on every
// push, re-applies the transition to it and interns the result, with no
// transition memo, no action encoding and no shared queue. Stores are
// applied by an independent byte loop that locates each chunk by search
// rather than through the plan's precomputed offsets.

// oracleInterner maps images to dense ids and collects the crash outcomes
// of each distinct image once, when it is first seen.
type oracleInterner struct {
	tab []memState
	ids map[memState]uint32
	pl  *plan
	set map[string]struct{}
}

func newOracleInterner(pl *plan) *oracleInterner {
	mi := &oracleInterner{tab: make([]memState, 1), ids: make(map[memState]uint32), pl: pl, set: make(map[string]struct{})}
	mi.ids[mi.tab[0]] = 0
	pl.crashOutcomes(&mi.tab[0], mi.set)
	return mi
}

func (mi *oracleInterner) intern(m *memState) uint32 {
	if id, ok := mi.ids[*m]; ok {
		return id
	}
	id := uint32(len(mi.tab))
	mi.tab = append(mi.tab, *m)
	mi.ids[*m] = id
	mi.pl.crashOutcomes(m, mi.set)
	return id
}

// oracleChunks numbers the footprint's 8-byte chunks by sorting their
// (line, index-in-line) pairs, independently of the plan's numbering.
func oracleChunks(p *Program) [][2]int {
	var chunks [][2]int
	for _, l := range p.Locs {
		for b := 0; b < l.Size; b++ {
			if c := [2]int{l.Line, (l.Off + b) / 8}; !slices.Contains(chunks, c) {
				chunks = append(chunks, c)
			}
		}
	}
	sort.Slice(chunks, func(i, j int) bool {
		return chunks[i][0] < chunks[j][0] || chunks[i][0] == chunks[j][0] && chunks[i][1] < chunks[j][1]
	})
	return chunks
}

// oracleStore writes val to location loc of the volatile view and dirties
// its line.
func oracleStore(pl *plan, chunks [][2]int, m *memState, loc int, val uint64) {
	l := pl.p.Locs[loc]
	for b := 0; b < l.Size; b++ {
		ci := slices.Index(chunks, [2]int{l.Line, (l.Off + b) / 8})
		m.vol[ci][(l.Off+b)%8] = byte(val >> (8 * b))
	}
	m.dirty |= 1 << pl.lineIdx[l.Line]
}

type oracleStoreOp struct {
	loc int
	val uint64
}

type oracleRefKey struct {
	mem                  uint32
	pc, drained, pending [MaxThreads]uint8
}

// oracleEnumerate is the straight-line reference explorer.
func oracleEnumerate(s Semantics, pl *plan, maxStates int) (map[string]struct{}, int, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	type thread struct {
		stores       []oracleStoreOp
		storesBefore []int
		needDrain    []int
	}
	threads := make([]thread, len(pl.p.Threads))
	for t, ops := range pl.p.Threads {
		th := &threads[t]
		th.storesBefore = make([]int, len(ops)+1)
		th.needDrain = make([]int, len(ops))
		lastSameLine := make(map[int]int)
		for i, op := range ops {
			th.storesBefore[i] = len(th.stores)
			switch op.Kind {
			case OpStore:
				th.stores = append(th.stores, oracleStoreOp{loc: pl.locIdx[op.Loc], val: op.Val})
				lastSameLine[pl.p.Locs[pl.locIdx[op.Loc]].Line] = len(th.stores)
			case OpClwb, OpClflushOpt:
				th.needDrain[i] = lastSameLine[pl.p.Locs[pl.locIdx[op.Loc]].Line]
			case OpSfence:
				th.needDrain[i] = len(th.stores)
			}
		}
		th.storesBefore[len(ops)] = len(th.stores)
	}
	chunks := oracleChunks(pl.p)
	mi := newOracleInterner(pl)
	visited := map[oracleRefKey]struct{}{{}: {}}
	queue := []oracleRefKey{{}}
	push := func(k oracleRefKey, m *memState) {
		k.mem = mi.intern(m)
		if _, ok := visited[k]; !ok {
			visited[k] = struct{}{}
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		if len(visited) > maxStates {
			return nil, len(visited), fmt.Errorf("oracle reference explorer: %w", ErrStateCap)
		}
		k := queue[0]
		queue = queue[1:]
		mem := mi.tab[k.mem]
		for t := range pl.p.Threads {
			th := &threads[t]
			for li := 0; li < len(pl.lines); li++ {
				bit := uint8(1) << li
				if k.pending[t]&bit == 0 {
					continue
				}
				next, m := k, mem
				pl.flushLine(&m, li)
				next.pending[t] &^= bit
				push(next, &m)
			}
			if d := int(k.drained[t]); d < th.storesBefore[k.pc[t]] {
				next, m := k, mem
				oracleStore(pl, chunks, &m, th.stores[d].loc, th.stores[d].val)
				next.drained[t]++
				push(next, &m)
			}
			ops := pl.p.Threads[t]
			if int(k.pc[t]) >= len(ops) || th.needDrain[k.pc[t]] > int(k.drained[t]) {
				continue
			}
			op := ops[k.pc[t]]
			next, m := k, mem
			next.pc[t]++
			switch op.Kind {
			case OpClwb, OpClflushOpt:
				next.pending[t] |= 1 << pl.lineIdx[pl.p.Locs[pl.locIdx[op.Loc]].Line]
			case OpSfence:
				if s.SfenceOrdersFlushes {
					for li := 0; li < len(pl.lines); li++ {
						if next.pending[t]&(1<<li) != 0 {
							pl.flushLine(&m, li)
						}
					}
					next.pending[t] = 0
				}
			case OpPcommit:
				pl.drainWPQ(&m)
			}
			push(next, &m)
		}
	}
	return mi.set, len(visited), nil
}

// oracleApply applies one stream event to an image.
func oracleApply(pl *plan, chunks [][2]int, m *memState, e mevent) {
	switch e.op {
	case isa.Store:
		oracleStore(pl, chunks, m, pl.locIdx[pl.stores[e.act].Loc], pl.stores[e.act].Val)
	case isa.Clwb, isa.Clflushopt, isa.Clflush:
		pl.flushLine(m, e.line)
	case isa.Pcommit:
		pl.drainWPQ(m)
	}
}

// oracleMachineOutcomes is the straight-line machine-stream explorer.
func oracleMachineOutcomes(pl *plan, streams [][]mevent, maxStates int) (map[string]struct{}, int, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	type key struct {
		mem uint32
		pos [MaxThreads]uint8
	}
	chunks := oracleChunks(pl.p)
	mi := newOracleInterner(pl)
	visited := map[key]struct{}{{}: {}}
	queue := []key{{}}
	for len(queue) > 0 {
		if len(visited) > maxStates {
			return nil, len(visited), fmt.Errorf("oracle machine explorer: %w", ErrStateCap)
		}
		k := queue[0]
		queue = queue[1:]
		mem := mi.tab[k.mem]
		for c := range streams {
			if int(k.pos[c]) >= len(streams[c]) {
				continue
			}
			next, m := k, mem
			oracleApply(pl, chunks, &m, streams[c][k.pos[c]])
			next.pos[c]++
			next.mem = mi.intern(&m)
			if _, ok := visited[next]; !ok {
				visited[next] = struct{}{}
				queue = append(queue, next)
			}
		}
	}
	return mi.set, len(visited), nil
}

// oracleSlackOutcomes is the straight-line drain-slack envelope explorer.
func oracleSlackOutcomes(pl *plan, maxStates int) (map[string]struct{}, int, error) {
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	threads := buildSlack(pl)
	type key struct {
		mem  uint32
		j, k [MaxThreads]uint8
	}
	chunks := oracleChunks(pl.p)
	mi := newOracleInterner(pl)
	visited := map[key]struct{}{{}: {}}
	queue := []key{{}}
	push := func(k key, m *memState) {
		k.mem = mi.intern(m)
		if _, ok := visited[k]; !ok {
			visited[k] = struct{}{}
			queue = append(queue, k)
		}
	}
	for len(queue) > 0 {
		if len(visited) > maxStates {
			return nil, len(visited), fmt.Errorf("oracle slack explorer: %w", ErrStateCap)
		}
		s := queue[0]
		queue = queue[1:]
		mem := mi.tab[s.mem]
		for t := range threads {
			th := &threads[t]
			if k := int(s.k[t]); k < len(th.stores) && th.storeMinJ[k] <= int(s.j[t]) {
				next, m := s, mem
				next.k[t]++
				oracleApply(pl, chunks, &m, th.stores[k])
				push(next, &m)
			}
			if j := int(s.j[t]); j < len(th.persists) && th.persistMinK[j] <= int(s.k[t]) {
				next, m := s, mem
				next.j[t]++
				oracleApply(pl, chunks, &m, th.persists[j])
				push(next, &m)
			}
		}
	}
	return mi.set, len(visited), nil
}
