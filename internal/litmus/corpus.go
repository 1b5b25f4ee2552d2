package litmus

import (
	"embed"
	"encoding/json"
	"fmt"
	"io/fs"
	"slices"
	"sort"
	"strconv"
	"strings"
)

//go:embed testdata/*.golden.json
var goldenFS embed.FS

// Golden is a curated test's hand-derived contract: the complete allowed
// crash-visible outcome set, plus partial-outcome constraints that must
// never be satisfiable ("flag=1 with x=0"). The golden files pin the
// reference interpreter itself — they were derived on paper, not dumped
// from the implementation under test.
type Golden struct {
	Name      string              `json:"name"`
	Allowed   []string            `json:"allowed"`
	Forbidden []map[string]uint64 `json:"forbidden"`
}

// Goldens loads every embedded golden file, keyed by test name.
func Goldens() (map[string]Golden, error) {
	out := make(map[string]Golden)
	err := fs.WalkDir(goldenFS, "testdata", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		blob, err := goldenFS.ReadFile(path)
		if err != nil {
			return err
		}
		var g Golden
		if err := json.Unmarshal(blob, &g); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out[g.Name] = g
		return nil
	})
	return out, err
}

// barrier is the paper's persist barrier: sfence; pcommit; sfence.
func barrier() []Op {
	return []Op{{Kind: OpSfence}, {Kind: OpPcommit}, {Kind: OpSfence}}
}

func seq(ops ...[]Op) []Op {
	var out []Op
	for _, o := range ops {
		out = append(out, o...)
	}
	return out
}

func op1(kind, loc string) []Op      { return []Op{{Kind: kind, Loc: loc}} }
func st(loc string, val uint64) []Op { return []Op{{Kind: OpStore, Loc: loc, Val: val}} }

// Curated returns the classic persist litmus tests, adapted from the
// store-ordering shapes of Khyzha & Lahav's Px86 study: store buffering,
// message passing, 2+2W, a flush issued on a different core than the
// store it covers, and a torn mixed-size store spanning an 8-byte-chunk
// boundary. Each has a hand-derived golden file under testdata/.
func Curated() []Program {
	return []Program{
		{
			// Persist SB: each thread persists its own location with a
			// full barrier, then stores the other's. A thread's second
			// store can only be crash-visible if the first is durable.
			Name: "sb",
			Locs: []Loc{{Name: "x", Line: 0, Off: 0, Size: 8}, {Name: "y", Line: 1, Off: 0, Size: 8}},
			Threads: [][]Op{
				seq(st("x", 1), op1(OpClwb, "x"), barrier(), st("y", 1)),
				seq(st("y", 2), op1(OpClwb, "y"), barrier(), st("x", 2)),
			},
		},
		{
			// Persist MP: the flag may only ever be crash-visible after
			// the payload is durable; an unrelated thread runs alongside.
			Name: "mp",
			Locs: []Loc{{Name: "x", Line: 0, Off: 0, Size: 8}, {Name: "flag", Line: 1, Off: 0, Size: 8}, {Name: "z", Line: 2, Off: 0, Size: 8}},
			Threads: [][]Op{
				seq(st("x", 1), op1(OpClwb, "x"), barrier(), st("flag", 1), op1(OpClwb, "flag")),
				seq(st("z", 1), op1(OpClwb, "z")),
			},
		},
		{
			// Persist 2+2W on a shared line: both threads write both
			// halves of line 0 in opposite orders, persist it, then raise
			// a per-thread done flag (the flags share line 1). A durable
			// done flag proves both halves are non-zero — though possibly
			// either writer's value, and the halves can tear separately
			// before the barriers. Subtler: with BOTH flags durable, the
			// image x=1 y=2 (each half keeping its first writer's value)
			// is impossible — a line snapshot taken after all four stores
			// would need the store order B2<A1<A2<B1<B2, a cycle.
			Name: "2+2w",
			Locs: []Loc{
				{Name: "x", Line: 0, Off: 0, Size: 8}, {Name: "y", Line: 0, Off: 8, Size: 8},
				{Name: "d0", Line: 1, Off: 0, Size: 8}, {Name: "d1", Line: 1, Off: 8, Size: 8},
			},
			Threads: [][]Op{
				seq(st("x", 1), st("y", 1), op1(OpClwb, "x"), op1(OpClwb, "y"), barrier(), st("d0", 1)),
				seq(st("y", 2), st("x", 2), op1(OpClwb, "y"), op1(OpClwb, "x"), barrier(), st("d1", 1)),
			},
		},
		{
			// Flush on another core: T1's clwb covers the whole of line 0,
			// including T0's store to the other half — flushing data one
			// never wrote is legal and persists it. The flag still only
			// proves T1's own half durable: T0's store may land after the
			// snapshot.
			Name: "flush-other",
			Locs: []Loc{{Name: "a", Line: 0, Off: 0, Size: 8}, {Name: "b", Line: 0, Off: 8, Size: 8}, {Name: "flag", Line: 1, Off: 0, Size: 8}},
			Threads: [][]Op{
				st("a", 1),
				seq(st("b", 1), op1(OpClwb, "b"), barrier(), st("flag", 1)),
			},
		},
		{
			// Torn mixed-size store: w straddles two 8-byte chunks, so a
			// crash before the barrier can persist either half alone
			// (values 2 and 1<<32). After the barrier — proven by the
			// flag — only the full value is legal.
			Name: "torn",
			Locs: []Loc{{Name: "w", Line: 0, Off: 4, Size: 8}, {Name: "flag", Line: 1, Off: 0, Size: 8}, {Name: "g", Line: 2, Off: 0, Size: 4}},
			Threads: [][]Op{
				seq(st("w", 1<<32|2), op1(OpClwb, "w"), barrier(), st("flag", 1)),
				st("g", 7),
			},
		},
	}
}

// parseOutcome splits a canonical outcome string back into values.
func parseOutcome(o string) (map[string]uint64, error) {
	out := make(map[string]uint64)
	for _, kv := range strings.Fields(o) {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("litmus: malformed outcome term %q", kv)
		}
		v, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("litmus: malformed outcome term %q: %w", kv, err)
		}
		out[name] = v
	}
	return out, nil
}

// matches reports whether an outcome satisfies a partial constraint.
func matches(outcome map[string]uint64, constraint map[string]uint64) bool {
	for name, want := range constraint {
		if outcome[name] != want {
			return false
		}
	}
	return len(constraint) > 0
}

// CheckGolden verifies the reference interpreter against a curated test's
// golden contract under the given semantics: the computed allowed set
// must equal the hand-derived one, and no allowed outcome may satisfy a
// forbidden constraint. Under Strict() both hold; under Weakened() the
// enlarged allowed set trips them — the negative control's detection
// path.
func CheckGolden(p Program, g Golden, sem Semantics, maxStates int) ([]Violation, error) {
	set, _, err := sem.Enumerate(&p, maxStates)
	if err != nil {
		return nil, err
	}
	allowed := sortedOutcomes(set)
	var vs []Violation
	if !slices.Equal(allowed, g.Allowed) {
		vs = append(vs, Violation{
			Kind:   KindGoldenMismatch,
			Detail: fmt.Sprintf("computed %d allowed outcomes, golden has %d; first extra: %q", len(allowed), len(g.Allowed), firstDiff(allowed, g.Allowed)),
		})
	}
	for _, o := range allowed {
		vals, perr := parseOutcome(o)
		if perr != nil {
			return vs, perr
		}
		for _, forbidden := range g.Forbidden {
			if matches(vals, forbidden) {
				vs = append(vs, Violation{Kind: KindAllowsForbidden, Outcome: o})
				break
			}
		}
	}
	return vs, nil
}

// firstDiff names the first element present in exactly one of two sorted
// lists, for golden-mismatch diagnostics.
func firstDiff(a, b []string) string {
	in := func(list []string, s string) bool {
		i := sort.SearchStrings(list, s)
		return i < len(list) && list[i] == s
	}
	for _, s := range a {
		if !in(b, s) {
			return s + " (computed only)"
		}
	}
	for _, s := range b {
		if !in(a, s) {
			return s + " (golden only)"
		}
	}
	return ""
}
