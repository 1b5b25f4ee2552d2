package litmus

import (
	"fmt"
	"slices"
)

// Violation kinds. Harness errors (invalid program, state-cap overflow)
// are returned as errors instead; a Violation always means the machine or
// the reference model broke a contract.
const (
	// KindNotAllowed: the machine exhibited a crash-visible outcome the
	// reference semantics forbids.
	KindNotAllowed = "outcome-not-allowed"
	// KindStreamDiverges: an SP run's canonical per-core effect stream
	// differs from the plain machine's (speculation leaked).
	KindStreamDiverges = "stream-diverges"
	// KindSetDiverges: an SP run's crash-visible outcome set differs from
	// the plain machine's by more than store-buffer drain slack — it
	// contains an outcome outside the envelope of every drain placement a
	// plain machine is allowed (see slack.go).
	KindSetDiverges = "sp-set-diverges"
	// KindStreamMismatch: a core's commit log cannot be paired with its
	// program (dropped, duplicated or reordered committed effects).
	KindStreamMismatch = "stream-mismatch"
	// KindGoldenMismatch: the reference interpreter's allowed set differs
	// from a curated test's hand-derived golden set (the negative
	// control's detection path).
	KindGoldenMismatch = "golden-mismatch"
	// KindAllowsForbidden: the reference interpreter allows an outcome a
	// curated test's golden file forbids.
	KindAllowsForbidden = "ref-allows-forbidden"
)

// Violation is one contract breach found while checking a program.
type Violation struct {
	Kind    string `json:"kind"`
	Mode    string `json:"mode,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Detail  string `json:"detail,omitempty"`
}

func (v Violation) String() string {
	s := v.Kind
	if v.Mode != "" {
		s += " [" + v.Mode + "]"
	}
	if v.Outcome != "" {
		s += " outcome " + v.Outcome
	}
	if v.Detail != "" {
		s += ": " + v.Detail
	}
	return s
}

// ModeResult is one machine configuration's observed behaviour.
type ModeResult struct {
	Mode            Mode     `json:"mode"`
	Outcomes        []string `json:"outcomes"`
	States          int      `json:"states"`
	Rollbacks       uint64   `json:"rollbacks"`        // all rollbacks (organic + forced)
	ForcedRollbacks int      `json:"forced_rollbacks"` // from the injected probe campaign
	NackDeferred    int      `json:"nack_deferred"`    // injected probes NACKed mid-drain
	StreamsEqual    bool     `json:"streams_equal"`    // canonical streams == plain run's
}

// Result is everything checking one program produced.
type Result struct {
	Program    Program      `json:"program"`
	Semantics  string       `json:"semantics"`
	Allowed    []string     `json:"allowed"`
	RefStates  int          `json:"ref_states"`
	Modes      []ModeResult `json:"modes"`
	Violations []Violation  `json:"violations,omitempty"`
}

// Config tunes Check.
type Config struct {
	// Semantics is the reference model; the zero value is upgraded to
	// Strict() (the zero Semantics is the intentionally broken negative
	// control and must be asked for explicitly via Weaken).
	Weaken bool
	// MaxStates caps each explorer (<= 0: DefaultMaxStates).
	MaxStates int
}

// Check computes a program's allowed outcome set under the reference
// semantics, runs the program on the real simulator under every Mode, and
// cross-checks: every observed outcome must be allowed, each SP run's
// canonical effect streams and outcome set must equal the plain run's.
// The returned error is reserved for harness failures (invalid program,
// state-space cap); contract breaches land in Result.Violations.
func Check(p Program, cfg Config) (Result, error) {
	sem := Strict()
	if cfg.Weaken {
		sem = Weakened()
	}
	res := Result{Program: p, Semantics: sem.String()}
	pl, err := compile(&p)
	if err != nil {
		return res, err
	}
	allowedSet, refStates, err := sem.enumerate(pl, cfg.MaxStates)
	if err != nil {
		return res, err
	}
	res.Allowed = sortedOutcomes(allowedSet)
	res.RefStates = refStates

	var plain *machineRun
	var plainOutcomes []string
	var envelope map[string]struct{} // drain-slack closure, computed on demand
	for _, m := range Modes(&p) {
		run, rerr := runMachine(pl, m)
		mr := ModeResult{Mode: m}
		if run != nil {
			// Per-core CPU counters include both organic (cross-core probe)
			// and injected-probe rollbacks; the engine counter only the
			// former.
			for _, pc := range run.stats.PerCore {
				mr.Rollbacks += pc.Rollbacks
			}
			if run.forced != nil {
				mr.ForcedRollbacks = run.forced.Rollbacks
				mr.NackDeferred = run.forced.Deferred
			}
		}
		if rerr != nil {
			res.Violations = append(res.Violations, Violation{
				Kind: KindStreamMismatch, Mode: m.Name, Detail: rerr.Error(),
			})
			res.Modes = append(res.Modes, mr)
			continue
		}
		if m.Name == "plain" {
			plain = run
			mr.StreamsEqual = true
		} else if plain == nil {
			// The plain run itself failed stream validation (already a
			// violation); there is nothing sound to compare against.
			mr.StreamsEqual = false
		} else {
			eq, why := streamsEqual(plain.canonical, run.canonical)
			mr.StreamsEqual = eq
			if !eq {
				res.Violations = append(res.Violations, Violation{
					Kind: KindStreamDiverges, Mode: m.Name, Detail: why,
				})
			}
		}
		// Outcome sets are pure functions of the raw streams; a mode whose
		// raw streams match the plain run's exactly shares its set. (Mere
		// canonical equality is not enough here — the cross-line slack it
		// erases can matter for outcomes, so differing raw streams each get
		// their own enumeration and the sets are compared below.)
		rawEq := false
		if plain != nil && m.Name != "plain" {
			rawEq, _ = streamsEqual(plain.raw, run.raw)
		}
		if rawEq {
			mr.Outcomes = plainOutcomes
			mr.States = 0
		} else {
			set, states, oerr := machineOutcomes(pl, run.raw, cfg.MaxStates)
			if oerr != nil {
				return res, oerr
			}
			mr.Outcomes = sortedOutcomes(set)
			mr.States = states
		}
		if m.Name == "plain" {
			plainOutcomes = mr.Outcomes
		}
		for _, o := range mr.Outcomes {
			if _, ok := allowedSet[o]; !ok {
				res.Violations = append(res.Violations, Violation{
					Kind: KindNotAllowed, Mode: m.Name, Outcome: o,
				})
			}
		}
		if m.Name != "plain" && plainOutcomes != nil && !slices.Equal(mr.Outcomes, plainOutcomes) {
			// Raw sets differ — usually byte-equal, but a difference is only
			// a violation if it exceeds store-buffer drain slack: every
			// outcome of both runs must sit inside the drain-placement
			// envelope a plain machine is allowed.
			if envelope == nil {
				var eerr error
				envelope, _, eerr = slackOutcomes(pl, cfg.MaxStates)
				if eerr != nil {
					return res, eerr
				}
			}
			for _, side := range []struct {
				who string
				set []string
			}{{"plain", plainOutcomes}, {m.Name, mr.Outcomes}} {
				for _, o := range side.set {
					if _, ok := envelope[o]; !ok {
						res.Violations = append(res.Violations, Violation{
							Kind: KindSetDiverges, Mode: m.Name, Outcome: o,
							Detail: fmt.Sprintf("%s run's outcome escapes the drain-slack envelope (%d vs plain's %d outcomes)", side.who, len(mr.Outcomes), len(plainOutcomes)),
						})
						break
					}
				}
			}
		}
		res.Modes = append(res.Modes, mr)
	}
	return res, nil
}
