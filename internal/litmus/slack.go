package litmus

import (
	"encoding/binary"

	"specpersist/internal/isa"
)

// Store-buffer drain slack. A core's commit log pins its store order, its
// flush/pcommit order, and each line's store-flush interleaving — but NOT
// where a store's drain lands relative to other-line flushes and
// pcommits: the plain machine's store buffer drains lazily, so two
// equally correct runs (or the plain and SP machines) can log an
// unflushed store on opposite sides of a pcommit. Comparing raw outcome
// sets across that slack would flag timing, not semantics. The fair
// question — and the paper's actual invisibility theorem — is whether the
// SP machine ever exhibits a crash image outside the ENVELOPE of every
// drain placement a plain machine is allowed: stores drain FIFO, never
// before a program-earlier flush or pcommit committed, never after a
// same-line flush that program-follows them, and never past an sfence
// (the fence completes the store buffer before younger persist ops
// commit).

// slackThread is one thread's partial order: stores and persist ops each
// totally ordered, with cross constraints. storeMinJ[k] is the number of
// persist events that must commit before store k may drain; persistMinK[j]
// is the number of stores that must drain before persist event j may
// commit.
type slackThread struct {
	stores      []mevent
	storeMinJ   []int
	persists    []mevent
	persistMinK []int
}

// buildSlack derives each thread's drain partial order from the program.
func buildSlack(pl *plan) []slackThread {
	out := make([]slackThread, len(pl.p.Threads))
	for t, th := range pl.p.Threads {
		st := &out[t]
		lastSameLine := make(map[int]int) // dense line -> last store index + 1
		fenceBound := 0                   // stores retired before the latest sfence
		for _, op := range th {
			switch op.Kind {
			case OpStore:
				li := pl.locs[pl.locIdx[op.Loc]].line
				st.stores = append(st.stores, mevent{op: isa.Store, line: li, act: pl.storeBase[t] + len(st.stores)})
				st.storeMinJ = append(st.storeMinJ, len(st.persists))
				lastSameLine[li] = len(st.stores)
			case OpClwb, OpClflushOpt:
				li := pl.locs[pl.locIdx[op.Loc]].line
				minK := lastSameLine[li]
				if fenceBound > minK {
					minK = fenceBound
				}
				st.persists = append(st.persists, mevent{op: isa.Clwb, line: li, act: pl.flushAct(li)})
				st.persistMinK = append(st.persistMinK, minK)
			case OpPcommit:
				st.persists = append(st.persists, mevent{op: isa.Pcommit, line: -1, act: pl.drainAct()})
				st.persistMinK = append(st.persistMinK, fenceBound)
			case OpSfence:
				fenceBound = len(st.stores)
			}
		}
	}
	return out
}

// slackKey is one envelope-explorer state: the persistence state (as an
// interned image id) plus each thread's progress through its persist
// sequence (j) and store drains (k).
type slackKey struct {
	mem  uint32
	j, k [MaxThreads]uint8
}

func (s slackKey) hash() uint64 {
	le := binary.LittleEndian
	return uint64(s.mem)<<32 | uint64(le.Uint32(s.j[:])) ^ uint64(le.Uint32(s.k[:]))*0xbf58476d1ce4e5b9
}

// slackOutcomes enumerates the crash-visible outcome envelope over every
// legal drain placement — the closure the raw per-mode sets are compared
// against when they differ. It is a superset of any single run's raw set
// and remains inside the reference-allowed set (a delayed drain only
// removes a volatile value a crash fate could drop anyway).
func slackOutcomes(pl *plan, maxStates int) (map[string]struct{}, int, error) {
	threads := buildSlack(pl)
	return explore(pl, maxStates, "slack-envelope", func(x *explorer[slackKey], s slackKey) {
		for t := range threads {
			th := &threads[t]
			if k := int(s.k[t]); k < len(th.stores) && th.storeMinJ[k] <= int(s.j[t]) {
				next := s
				next.mem = x.step(s.mem, th.stores[k].act)
				next.k[t]++
				x.push(next)
			}
			if j := int(s.j[t]); j < len(th.persists) && th.persistMinK[j] <= int(s.k[t]) {
				next := s
				next.mem = x.step(s.mem, th.persists[j].act)
				next.j[t]++
				x.push(next)
			}
		}
	})
}
