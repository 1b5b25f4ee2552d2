// Package fault is a deterministic crash-consistency fault-injection
// engine for the write-ahead-logged persistent structures. It replaces the
// historical randomized crash sampling with provable coverage:
//
//   - Exhaustive crash-point enumeration: a counting pass records how many
//     persistence events each operation performs, then one trial crashes
//     before every single event index.
//   - Torn writes: every spontaneously persisting line can land at 8-byte
//     chunk granularity (the NVM write atomicity the paper assumes), so
//     recovery must tolerate partially durable lines.
//   - Crash-during-recovery: a second crash is injected at every
//     persistence event inside txn.Recover, and recovery must remain
//     idempotent and convergent.
//   - Every trial is a Plan — a small JSON value that fully determines the
//     run. A failing plan replays byte-for-byte, and the delta-debugging
//     shrinker reduces it to a minimal reproducer.
//   - Shared prefixes: the counting pass keeps the state before each probed
//     operation (built, warmed up, persisted, completed operations applied),
//     and every trial runs on a deep-copy fork of it instead of rebuilding
//     it, which yields the identical outcome. The fork lands in a recycled
//     image (exec.Env.ForkInto), so a trial allocates no image of its own.
//
// Campaigns fan trials out over internal/sweep's worker pool and publish
// fault.* counters through internal/obs.
package fault

import (
	"fmt"
	"math/rand"
	"sync"

	"specpersist/internal/core"
	"specpersist/internal/exec"
	"specpersist/internal/mem"
	"specpersist/internal/pmem"
	"specpersist/internal/pstruct"
)

// LineFate is the serialized fate of one line at a crash: which 8-byte
// chunks of it became durable (bit i of Mask = bytes [8i, 8i+8)). A mask of
// 0 loses the line; pmem.FullMask persists it whole; anything in between is
// a torn write.
type LineFate struct {
	Line uint64 `json:"line"`
	Src  string `json:"src"` // "cache" (dirty line) or "wpq" (controller snapshot)
	Mask uint8  `json:"mask"`
}

// Plan fully determines one fault-injection trial: the structure and
// variant, the operation stream (derived from Seed), which operation is
// probed, where the crash hits, the fate of every line at the crash, and an
// optional second crash inside recovery. Replaying the same plan reproduces
// the same durable image bit-for-bit.
type Plan struct {
	Structure string `json:"structure"`
	Variant   string `json:"variant"`
	Seed      int64  `json:"seed"`

	// Workload shape. Keys are drawn from rand(Seed): Warmup keys first
	// (persisted wholesale), then one key per operation.
	Warmup       int `json:"warmup"`
	Keyspace     int `json:"keyspace"`
	HashCapacity int `json:"hash_capacity"`
	GraphVerts   int `json:"graph_verts"`
	Strings      int `json:"strings"`
	LogCapacity  int `json:"log_capacity"`

	// Op is the probed operation's index: operations [0, Op) complete
	// normally after warmup, then the crash is injected into operation Op.
	Op int `json:"op"`
	// CrashIndex is the persistence-event index within the probed operation
	// at which power is cut (0 = before the first store/flush/commit). If
	// the operation retires fewer events, it completes and the crash hits
	// between operations.
	CrashIndex int `json:"crash_index"`
	// Fates lists the fate of each line at the primary crash. Lines not
	// listed are lost (the strictest crash). Recorded by sampling trials so
	// that random campaigns stay replayable.
	Fates []LineFate `json:"fates,omitempty"`

	// RecoveryCrash, when >= 0, cuts power again at that persistence-event
	// index inside the recovery pass; RecoveryFates are the line fates of
	// that second crash. Recovery is then re-run to completion.
	RecoveryCrash int        `json:"recovery_crash"`
	RecoveryFates []LineFate `json:"recovery_fates,omitempty"`

	// VstoreUnsafeFlip (structure "VT" only) selects the versioned store's
	// negative-control commit: the root-selector flip reordered before the
	// changeset flush, sharing one barrier. The shrinker never touches this
	// field, so a shrunk reproducer keeps reproducing the broken protocol.
	VstoreUnsafeFlip bool `json:"vstore_unsafe_flip,omitempty"`
}

// DefaultPlan returns the campaign base plan for one structure/variant:
// trial-sized structure parameters with everything else zeroed.
func DefaultPlan(structure string, v core.Variant, seed int64) Plan {
	return Plan{
		Structure:     structure,
		Variant:       v.String(),
		Seed:          seed,
		Warmup:        60,
		Keyspace:      48,
		HashCapacity:  64,
		GraphVerts:    32,
		Strings:       16,
		LogCapacity:   2048,
		RecoveryCrash: -1,
	}
}

// Outcome is what one trial observed.
type Outcome struct {
	// Crashed reports whether the primary crash point was inside the probed
	// operation (false = the operation completed first).
	Crashed bool `json:"crashed"`
	// Events is the number of persistence events the probed operation
	// performed before the crash (or in total, if it completed).
	Events int `json:"events"`
	// RecoveryEvents is the number of persistence events the recovery pass
	// performed; 0 when nothing needed recovery. Only counted when the plan
	// did not itself crash recovery.
	RecoveryEvents int `json:"recovery_events"`
	// Recovered reports whether the recovery pass performed a rollback.
	Recovered bool `json:"recovered"`
	// TornLines counts lines that persisted partially at either crash.
	TornLines uint64 `json:"torn_lines"`
	// Violation is empty when the structure recovered to a consistent
	// pre-op-or-post-op state, and a description of the failure otherwise.
	Violation string `json:"violation,omitempty"`
}

// Failed reports whether the trial observed an atomicity violation.
func (o Outcome) Failed() bool { return o.Violation != "" }

// crashSignal aborts an operation at the injected crash point.
type crashSignal struct{}

// config assembles the pstruct sizing from the plan.
func (p Plan) config() pstruct.Config {
	return pstruct.Config{
		HashCapacity:     p.HashCapacity,
		GraphVerts:       p.GraphVerts,
		Strings:          p.Strings,
		VstoreUnsafeFlip: p.VstoreUnsafeFlip,
	}
}

// validate rejects plans that cannot be executed, and fields a run would
// silently ignore.
func (p Plan) validate() error {
	v, err := core.ParseVariant(p.Variant)
	if err != nil {
		return err
	}
	if !v.Transactional() {
		return fmt.Errorf("fault: variant %s has no recovery to test", v)
	}
	found := false
	for _, n := range pstruct.AllNames() {
		if n == p.Structure {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("fault: unknown structure %q", p.Structure)
	}
	if p.VstoreUnsafeFlip && p.Structure != "VT" {
		return fmt.Errorf("fault: vstore_unsafe_flip applies to structure VT only, not %s", p.Structure)
	}
	if p.Keyspace <= 0 || p.LogCapacity <= 0 || p.Strings <= 0 ||
		p.HashCapacity <= 0 || p.GraphVerts <= 0 {
		return fmt.Errorf("fault: plan has non-positive sizing")
	}
	if p.Warmup < 0 || p.Op < 0 || p.CrashIndex < 0 {
		return fmt.Errorf("fault: plan has negative warmup/op/crash_index")
	}
	for _, f := range append(append([]LineFate{}, p.Fates...), p.RecoveryFates...) {
		if _, err := pmem.ParseCrashSource(f.Src); err != nil {
			return err
		}
		if f.Mask > pmem.FullMask {
			return fmt.Errorf("fault: fate mask %#x exceeds %#x", f.Mask, pmem.FullMask)
		}
		if f.Line%mem.LineSize != 0 {
			return fmt.Errorf("fault: fate line %#x is not %d-byte aligned", f.Line, mem.LineSize)
		}
	}
	return nil
}

// fateFunc decides the persist mask of one line at a crash.
type fateFunc func(line uint64, src pmem.CrashSource) uint8

// replayFates returns the fate function reproducing recorded fates exactly:
// listed lines get their mask, everything else is lost.
func replayFates(fates []LineFate) fateFunc {
	type key struct {
		line uint64
		src  pmem.CrashSource
	}
	m := make(map[key]uint8, len(fates))
	for _, f := range fates {
		src, err := pmem.ParseCrashSource(f.Src)
		if err != nil {
			panic(err) // validate() rejected this earlier
		}
		m[key{f.Line, src}] = f.Mask
	}
	return func(line uint64, src pmem.CrashSource) uint8 {
		return m[key{line, src}]
	}
}

// samplingFates returns a fate function drawing random fates (the
// historical EvictFrac/DrainFrac behaviour, plus torn masks) and recording
// every decision into *out so the trial becomes a replayable plan.
func samplingFates(seed int64, torn bool, out *[]LineFate) fateFunc {
	rng := rand.New(rand.NewSource(seed))
	return func(line uint64, src pmem.CrashSource) uint8 {
		frac := 0.3 // cache evictions
		if src == pmem.SourceWPQ {
			frac = 0.5 // WPQ drains
		}
		var mask uint8
		if rng.Float64() < frac {
			mask = pmem.FullMask
			if torn && rng.Float64() < 0.5 {
				mask = uint8(rng.Intn(int(pmem.FullMask))) // strict subset
			}
		}
		if mask != 0 {
			*out = append(*out, LineFate{Line: line, Src: src.String(), Mask: mask})
		}
		return mask
	}
}

// crashOptions wraps a fate function; a nil function is the strict crash.
func crashOptions(f fateFunc) pmem.CrashOptions {
	if f == nil {
		return pmem.CrashOptions{}
	}
	return pmem.CrashOptions{LineFate: f}
}

// CrashOptionsSampled exposes the campaign's sampled-fate crash to other
// layers (internal/cluster node crashes): line fates are drawn from seed
// with the historical eviction/drain probabilities — torn writes included
// when torn is set — and every decision is recorded into *out, so a fleet
// crash remains a replayable plan fragment.
func CrashOptionsSampled(seed int64, torn bool, out *[]LineFate) pmem.CrashOptions {
	return crashOptions(samplingFates(seed, torn, out))
}

// Run executes the plan exactly as recorded and reports the outcome. It is
// the execution path for replay of serialized plans and for shrinking: it
// builds the plan's own prefix and runs the trial on a fork of it, exactly
// as a campaign trial does.
func Run(p Plan) (Outcome, error) {
	pres, _, err := prefixes(p, p.Op, p.Op+1)
	if err != nil {
		return Outcome{}, err
	}
	return runTrial(&pres[0], p, replayFates(p.Fates)), nil
}

// images recycles the trial machines, so a campaign stops allocating a
// whole crash image and undo-log line sets per trial. ForkInto leaves
// nothing of a recycled machine's last trial, so an outcome does not
// depend on which machine its trial draws.
var images = sync.Pool{New: func() any { return new(pstruct.Machine) }}

// prefix is the state every trial probing one operation starts from: the
// structure built, warmed up, persisted wholesale and advanced through the
// completed operations, with the probed key and the pre-op snapshot. It is
// shared read-only by concurrent trials; each trial runs on a fork.
type prefix struct {
	m   *pstruct.Machine
	key uint64
	pre []uint64
}

// prefixes is the single place a plan's structure is built and warmed up.
// It builds the structure, runs the warm-up, persists the whole image, and
// then walks operations [0, nops) under a counting hook. Before each
// operation i >= from it keeps a fork of the state as prefix i-from; it
// returns those prefixes and the number of persistence events of every
// operation — the exhaustive campaign's counting pass, where each index in
// [0, counts[i]) is a distinct crash point of operation i. A panic while
// building (a log capacity or structure size the workload cannot run with)
// is the plan's error, not a violation.
func prefixes(p Plan, from, nops int) (pres []prefix, counts []int, err error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			pres, counts, err = nil, nil, fmt.Errorf("fault: building the %s prefix: %v", p.Structure, r)
		}
	}()
	v, _ := core.ParseVariant(p.Variant)
	env := exec.New()
	env.Level = v.Level()
	if v.Level() == exec.LevelLogP {
		// The ordering adversary models the persist reordering the elided
		// fences permit; its seed is part of the plan's determinism.
		env.SeedReorder(p.Seed + 99)
	}
	m := pstruct.NewMachine(env, p.Structure, p.LogCapacity, p.config())
	rng := rand.New(rand.NewSource(p.Seed))
	m.Warm(p.Warmup, func() uint64 { return uint64(rng.Intn(p.Keyspace)) })

	counts = make([]int, nops)
	for i := range counts {
		key := uint64(rng.Intn(p.Keyspace))
		if i >= from {
			// Snapshot the fork, not the walked machine, so the walk's
			// later operations see exactly the state a straight-line run
			// would.
			f := m.Fork()
			pres = append(pres, prefix{m: f, key: key, pre: snapshot(f.St, p)})
		}
		n := 0
		restore := env.WithHook(func() { n++ })
		m.St.Apply(key)
		restore()
		counts[i] = n
	}
	return pres, counts, nil
}

// runTrial runs one trial on a fork of its prefix into a recycled
// machine. primary decides the primary crash's line fates (nil = strict);
// a crash inside recovery replays p.RecoveryFates.
func runTrial(pf *prefix, p Plan, primary fateFunc) Outcome {
	m := images.Get().(*pstruct.Machine)
	defer images.Put(m)
	return probe(pf.m.ForkInto(m), pf.key, pf.pre, p, primary)
}

// probe is a trial's tail on a machine positioned just before the probed
// operation: apply key up to the crash point, crash, recover (possibly
// crashing again inside recovery) and check the recovered state against
// the pre-op snapshot pre and its post-op image.
func probe(m *pstruct.Machine, key uint64, pre []uint64, p Plan, primary fateFunc) Outcome {
	env, s := m.Env, m.St
	var out Outcome
	out.Crashed, out.Events = crashAt(env, p.CrashIndex, func() { s.Apply(key) })

	base := env.M.Stats().TornLines
	env.Crash(crashOptions(primary))

	// Recovery, possibly interrupted by a second crash. Recovery running on
	// a corrupted log may itself panic (e.g. a torn entry count), which the
	// machine returns as its error: that is an unrecoverable state, i.e. a
	// violation, not a harness error. A panic in the checks that follow
	// reads the same way.
	violation := func() (violation string) {
		defer func() {
			if r := recover(); r != nil {
				violation = fmt.Sprintf("recovery panicked: %v", r)
			}
		}()
		var err error
		if p.RecoveryCrash >= 0 {
			// The crash aborts recovery by the panic the machine returns
			// as err, so err counts only when the crash did not fire.
			crashed, _ := crashAt(env, p.RecoveryCrash, func() { _, err = m.Recover() })
			if crashed {
				env.Crash(crashOptions(replayFates(p.RecoveryFates)))
			} else if err != nil {
				return err.Error()
			}
			// The machine reboots once more; this recovery must finish.
			var rolled bool
			if rolled, err = m.Recover(); err != nil {
				return err.Error()
			}
			out.Recovered = rolled || out.Recovered
		} else {
			restore := env.WithHook(func() { out.RecoveryEvents++ })
			out.Recovered, err = m.Recover()
			restore()
			if err != nil {
				out.RecoveryEvents = 0
				return err.Error()
			}
		}
		// Idempotence: a recovery that ran to completion retired the log;
		// running it again must be a no-op.
		if again, err := m.Recover(); err != nil {
			return err.Error()
		} else if again {
			return "recovery is not idempotent: second pass rolled back again"
		}
		if err := s.Check(); err != nil {
			return fmt.Sprintf("invariant violation after recovery: %v", err)
		}
		// Only snapshot a structure whose invariants hold: walking a
		// corrupted structure (e.g. a cyclic list) may not terminate.
		got := snapshot(s, p)
		if !equalSnap(got, pre) && !equalSnap(got, applyOracle(pre, p, key)) {
			return fmt.Sprintf("atomicity violation: state after key %d is neither pre-op nor post-op", key)
		}
		return ""
	}()
	out.Violation = violation
	out.TornLines = env.M.Stats().TornLines - base
	return out
}

// crashAt runs fn, cutting power before persistence event number at. It
// reports whether the crash fired and how many events were seen.
func crashAt(env *exec.Env, at int, fn func()) (crashed bool, events int) {
	restore := env.WithHook(func() {
		if events >= at {
			crashed = true
			panic(crashSignal{})
		}
		events++
	})
	defer func() {
		restore()
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); !ok {
				panic(r)
			}
		}
	}()
	fn()
	return crashed, events
}

// snapshot captures the observable state: membership over the keyspace for
// keyed structures, the identity permutation for the string array.
func snapshot(s pstruct.Structure, p Plan) []uint64 {
	if ss, ok := s.(*pstruct.StringSwap); ok {
		out := make([]uint64, p.Strings)
		for i := range out {
			out[i] = ss.IdentityAt(uint64(i))
		}
		return out
	}
	out := make([]uint64, p.Keyspace)
	for k := range out {
		if s.Contains(uint64(k)) {
			out[k] = 1
		}
	}
	return out
}

// applyOracle computes the post-operation snapshot from the pre snapshot,
// mirroring each structure's Apply semantics on the abstract state.
func applyOracle(pre []uint64, p Plan, key uint64) []uint64 {
	post := append([]uint64(nil), pre...)
	switch p.Structure {
	case "SS":
		n := uint64(p.Strings)
		i, j := key%n, (key/n)%n
		if i == j {
			j = (j + 1) % n
		}
		post[i], post[j] = post[j], post[i]
	case "GH":
		nv := uint64(p.GraphVerts)
		// key toggles edge (key%nv, (key/nv)%nv); every key in the keyspace
		// mapping to the same edge toggles with it.
		u, v := key%nv, (key/nv)%nv
		for k := range post {
			if uint64(k)%nv == u && (uint64(k)/nv)%nv == v {
				post[k] ^= 1
			}
		}
	default:
		post[key] ^= 1
	}
	return post
}

func equalSnap(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
