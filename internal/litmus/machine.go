package litmus

import (
	"encoding/binary"
	"fmt"

	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/isa"
	"specpersist/internal/mem"
	"specpersist/internal/multicore"
	"specpersist/internal/trace"
)

// Mode is one machine configuration a program is checked under.
type Mode struct {
	Name  string `json:"name"`
	SP    bool   `json:"sp"`             // speculative persistence hardware on
	Probe int    `json:"probe"`          // victim core for an injected probe campaign; -1 = none
	Nack  bool   `json:"nack,omitempty"` // withhold the probe until the NACK (mid-drain) window
}

// Modes returns the machine configurations a program is checked under:
// the plain (Log+P+Sf-style) machine, the SP machine, and — when the
// program can actually speculate (it contains a pcommit) — one forced
// early-rollback and one forced NACK-window probe campaign per thread
// that stores, exercising the §4.2.2 abort and deferral paths at points
// the organic cross-core probe traffic might miss.
func Modes(p *Program) []Mode {
	modes := []Mode{
		{Name: "plain", Probe: -1},
		{Name: "sp", SP: true, Probe: -1},
	}
	speculates := false
	for _, th := range p.Threads {
		for _, op := range th {
			if op.Kind == OpPcommit {
				speculates = true
			}
		}
	}
	if !speculates {
		return modes
	}
	for t, th := range p.Threads {
		stores := false
		for _, op := range th {
			if op.Kind == OpStore {
				stores = true
			}
		}
		if !stores {
			continue
		}
		modes = append(modes,
			Mode{Name: fmt.Sprintf("sp-rb%d", t), SP: true, Probe: t},
			Mode{Name: fmt.Sprintf("sp-nack%d", t), SP: true, Probe: t, Nack: true},
		)
	}
	return modes
}

// mevent is one canonical-stream entry: a store, a flush, or a pcommit,
// attributed to a dense line index, with the explorer-kernel action it
// performs (for a store, the ordinal of the program store it commits,
// which carries the payload).
type mevent struct {
	op   isa.Op
	line int // dense line index; -1 for pcommit
	act  int
}

// machineRun is one mode's raw results.
type machineRun struct {
	mode      Mode
	logs      [][]cpu.CommitEvent // per-core raw commit logs
	raw       [][]mevent          // per-core value-carrying streams, commit order
	canonical [][]mevent          // raw normalized per persist-epoch segment
	stats     multicore.Stats
	forced    *multicore.ProbeStats
}

// buildTraces lowers the program to one trace per thread. Stores carry a
// zero-latency ALU producer for their data dependence; loads and nops
// exercise the pipeline without touching persistence state.
func buildTraces(pl *plan) []*trace.Buffer {
	bufs := make([]*trace.Buffer, len(pl.p.Threads))
	for t, th := range pl.p.Threads {
		buf := &trace.Buffer{}
		bld := trace.NewBuilder(buf)
		for _, op := range th {
			switch op.Kind {
			case OpStore:
				l := pl.p.Locs[pl.locIdx[op.Loc]]
				v := bld.ALU(0)
				bld.Store(pl.addr(l), l.Size, v, isa.NoReg)
			case OpClwb:
				bld.Clwb(pl.addr(pl.p.Locs[pl.locIdx[op.Loc]]))
			case OpClflushOpt:
				bld.Clflushopt(pl.addr(pl.p.Locs[pl.locIdx[op.Loc]]))
			case OpSfence:
				bld.Sfence()
			case OpPcommit:
				bld.Pcommit()
			case OpLoad:
				l := pl.p.Locs[pl.locIdx[op.Loc]]
				bld.Load(pl.addr(l), l.Size, isa.NoReg)
			case OpNop:
				bld.ALU(1)
			}
		}
		// Quiesce: a trailing sfence closes any open sfence–pcommit trio,
		// so a final unfenced pcommit still issues (and is logged) on the
		// SP machine exactly as it does on the plain one. It emits no
		// commit event itself.
		bld.Sfence()
		bufs[t] = buf
	}
	return bufs
}

// runMachine executes the program once under a mode on the multicore
// engine (one core per thread, shared memory controller, real coherence
// probes between cores) and extracts each core's canonical effect stream.
func runMachine(pl *plan, m Mode) (*machineRun, error) {
	opts := core.DefaultOptions()
	if m.SP {
		opts.CPU.SP = cpu.DefaultSPConfig()
	}
	sim := multicore.New(multicore.Config{Cores: len(pl.p.Threads), Options: opts})
	for i := 0; i < sim.Cores(); i++ {
		sim.Core(i).EnableCommitLog()
	}
	run := &machineRun{mode: m}
	if m.Probe >= 0 {
		var lines []uint64
		seen := make(map[uint64]bool)
		for _, op := range pl.p.Threads[m.Probe] {
			if op.Kind == OpStore {
				line := mem.LineAddr(pl.addr(pl.p.Locs[pl.locIdx[op.Loc]]))
				if !seen[line] {
					seen[line] = true
					lines = append(lines, line)
				}
			}
		}
		run.forced = sim.InjectProbes(multicore.ProbePlan{Core: m.Probe, Lines: lines, WaitDrain: m.Nack})
	}
	bufs := buildTraces(pl)
	srcs := make([]trace.Source, len(bufs))
	for i, b := range bufs {
		srcs[i] = b
	}
	run.stats = sim.Run(srcs)
	run.logs = make([][]cpu.CommitEvent, sim.Cores())
	run.raw = make([][]mevent, sim.Cores())
	run.canonical = make([][]mevent, sim.Cores())
	for i := 0; i < sim.Cores(); i++ {
		run.logs[i] = sim.Core(i).CommitLog()
		stream, err := attachValues(pl, i, run.logs[i])
		if err != nil {
			return run, err
		}
		run.raw[i] = stream
		run.canonical[i] = canonicalStream(stream)
	}
	return run, nil
}

// attachValues converts a core's raw commit log into a value-carrying
// event stream, verifying it against program order: the k-th committed
// store must be the k-th program store (both the plain store buffer and
// the SP SSB drain stores FIFO, and the §4.2.2 rollback contract forbids
// draining an effect twice), and the j-th flush-or-pcommit event must be
// the j-th flush-or-pcommit program op (both log at retire/SSB order). A
// machine that dropped, duplicated or reordered any committed persistence
// effect surfaces here as a stream mismatch rather than being silently
// reinterpreted. The one freedom deliberately NOT pinned is a store's
// placement relative to other-line flushes and pcommits — the plain
// machine's store buffer drains lazily, so an unflushed store's commit
// event may legally trail a later pcommit's.
func attachValues(pl *plan, t int, log []cpu.CommitEvent) ([]mevent, error) {
	first := pl.storeBase[t]
	stores := pl.stores[first:pl.storeBase[t+1]]
	var persists []Op // flushes and pcommits, program order
	for _, op := range pl.p.Threads[t] {
		switch op.Kind {
		case OpClwb, OpClflushOpt, OpPcommit:
			persists = append(persists, op)
		}
	}
	var out []mevent
	k, j := 0, 0
	for _, e := range log {
		switch e.Op {
		case isa.Store:
			if k >= len(stores) {
				return nil, fmt.Errorf("core %d committed %d stores, program has %d", t, k+1, len(stores))
			}
			l := pl.p.Locs[pl.locIdx[stores[k].Loc]]
			if want := pl.addr(l); e.Addr != want {
				return nil, fmt.Errorf("core %d store commit %d at %#x, program order says %#x (%s)", t, k, e.Addr, want, l.Name)
			}
			out = append(out, mevent{op: isa.Store, line: pl.lineIdx[l.Line], act: first + k})
			k++
		case isa.Clwb, isa.Clflushopt, isa.Clflush:
			li := pl.lineOf(mem.LineAddr(e.Addr))
			if li < 0 {
				return nil, fmt.Errorf("core %d flushed %#x, outside the program footprint", t, e.Addr)
			}
			if j >= len(persists) {
				return nil, fmt.Errorf("core %d committed %d persist ops, program has %d", t, j+1, len(persists))
			}
			if p := persists[j]; p.Kind == OpPcommit {
				return nil, fmt.Errorf("core %d persist commit %d is a flush of line %d, program order says pcommit", t, j, li)
			} else if want := pl.lineIdx[pl.p.Locs[pl.locIdx[p.Loc]].Line]; want != li {
				return nil, fmt.Errorf("core %d persist commit %d flushes line %d, program order says %d", t, j, li, want)
			}
			out = append(out, mevent{op: e.Op, line: li, act: pl.flushAct(li)})
			j++
		case isa.Pcommit:
			if j >= len(persists) {
				return nil, fmt.Errorf("core %d committed %d persist ops, program has %d", t, j+1, len(persists))
			}
			if persists[j].Kind != OpPcommit {
				return nil, fmt.Errorf("core %d persist commit %d is a pcommit, program order says %s %s", t, j, persists[j].Kind, persists[j].Loc)
			}
			out = append(out, mevent{op: isa.Pcommit, line: -1, act: pl.drainAct()})
			j++
		default:
			return nil, fmt.Errorf("core %d committed unexpected op %v", t, e.Op)
		}
	}
	if k != len(stores) {
		return nil, fmt.Errorf("core %d committed %d stores, program has %d", t, k, len(stores))
	}
	if j != len(persists) {
		return nil, fmt.Errorf("core %d committed %d persist ops, program has %d", t, j, len(persists))
	}
	return out, nil
}

// canonicalStream projects a core's raw stream onto the structure both
// machines guarantee and a crash can distinguish: the flush/pcommit
// sequence in commit order (flush-vs-pcommit order decides whether a
// snapshot drains; both machines commit these in program order), followed
// by each line's full store/flush projection (same-line store-flush
// interleaving decides snapshot contents; cross-line store placement is
// store-buffer drain slack and is deliberately erased — comparing it
// would flag the plain machine's lazy drain timing as an SP leak). The
// result is the §4.2.2 plain-vs-SP equivalence contract, used ONLY for
// that comparison — never for outcome enumeration, which must see the
// raw commit order.
func canonicalStream(events []mevent) []mevent {
	out := make([]mevent, 0, 2*len(events)+MaxLines)
	for _, e := range events {
		if e.op != isa.Store {
			out = append(out, e)
		}
	}
	for li := 0; li < MaxLines; li++ {
		// A line-delimiter entry (ALU never appears in real streams) keeps
		// projections of different lines and the persist prefix from
		// aliasing each other.
		out = append(out, mevent{op: isa.ALU, line: li})
		for _, e := range events {
			if e.line == li {
				out = append(out, e)
			}
		}
	}
	return out
}

// streamsEqual compares two per-core canonical stream sets.
func streamsEqual(a, b [][]mevent) (bool, string) {
	for c := range a {
		x, y := a[c], b[c]
		if len(x) != len(y) {
			return false, fmt.Sprintf("core %d: %d vs %d canonical events", c, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				return false, fmt.Sprintf("core %d event %d: %+v vs %+v", c, i, x[i], y[i])
			}
		}
	}
	return true, ""
}

// machineKey is one machine-explorer state: the persistence state plus a
// position in each core's raw stream (at most MaxOpsPerThread: attachValues
// pairs every stream event with a program op).
type machineKey struct {
	mem uint32 // interned image id
	pos [MaxThreads]uint8
}

func (k machineKey) hash() uint64 {
	return uint64(k.mem)<<32 | uint64(binary.LittleEndian.Uint32(k.pos[:]))
}

// machineOutcomes enumerates the crash-visible outcome set of a machine
// run: every interleaving of the per-core RAW effect streams (exactly
// what each core committed, in commit order), stepped through the same
// chunk-granular persistence state as the reference interpreter, with
// crash fates collected at every state. Enumerating interleavings —
// rather than trusting the one cycle-accurate merge the run happened to
// produce — makes the observed set a pure function of the streams, so
// SP-vs-plain set equality is meaningful and timing-independent.
func machineOutcomes(pl *plan, streams [][]mevent, maxStates int) (map[string]struct{}, int, error) {
	return explore(pl, maxStates, "machine", func(x *explorer[machineKey], k machineKey) {
		for c := range streams {
			if int(k.pos[c]) >= len(streams[c]) {
				continue
			}
			next := k
			next.mem = x.step(k.mem, streams[c][k.pos[c]].act)
			next.pos[c]++
			x.push(next)
		}
	})
}
