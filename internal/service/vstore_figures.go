// Versioned-store figures: the per-op-WAL vs changeset-commit comparison
// cmd/figures -vstore emits. The same open-loop server runs the WAL-logged
// B-tree (four ordering points per update, coalescible under group commit)
// and the versioned COW store (two ordering points per commit group, any
// size) side by side, across offered load, variant and group size — so the
// table shows what trading the undo log for a changeset commit buys in
// barrier counts, tail latency and p99-SLO capacity.
package service

import (
	"fmt"
	"sort"

	"specpersist/internal/core"
	"specpersist/internal/report"
)

// DefaultVstoreSweepConfig returns the harness-scale comparison: WAL
// B-tree against the versioned store, the fenced baseline against SP,
// group commit off and on, single shard.
func DefaultVstoreSweepConfig() SweepConfig {
	return SweepConfig{
		Base:       DefaultConfig(),
		Structures: []string{"BT", "VT"},
		Rates:      []float64{100, 300, 500, 700, 900},
		Variants:   []core.Variant{core.VariantLogPSf, core.VariantSP},
		Batches:    []int{1, 8},
	}
}

// commitProtocol names how a structure reaches durability: "changeset"
// or "per-op WAL".
func commitProtocol(structure string) string {
	if structure == "VT" {
		return "changeset"
	}
	return "per-op WAL"
}

// VstoreTable renders the sweep as the comparison table: one row per grid
// cell with the barrier-count evidence (serving pcommits per completed
// request) next to goodput and tail latency.
func VstoreTable(points []SweepPoint) *report.Table {
	t := &report.Table{
		Title: "Per-op WAL vs changeset commit: barriers, goodput and tail latency",
		Columns: []string{"structure", "commit", "variant", "K", "offered(req/Mc)",
			"goodput(req/Mc)", "p50", "p99", "drops", "pcommit/req"},
	}
	for _, p := range points {
		r := p.Result
		perReq := 0.0
		if r.Stats.Completed > 0 {
			perReq = float64(r.Stats.Pcommits) / float64(r.Stats.Completed)
		}
		t.AddRow(p.Structure, commitProtocol(p.Structure), p.Variant, fmt.Sprint(p.Batch),
			fmt.Sprintf("%.0f", p.Rate), fmt.Sprintf("%.1f", r.Throughput),
			fmt.Sprint(r.P50), fmt.Sprint(r.P99),
			fmt.Sprint(r.Stats.Dropped), fmt.Sprintf("%.2f", perReq))
	}
	t.AddNote("per-op WAL: 4 ordering points per update, coalesced to 1 per group at K>1")
	t.AddNote("changeset: 2 ordering points per commit group regardless of group size")
	return t
}

// VstoreCapacityTable reduces the sweep to the headline comparison: for
// each group size, a p99 SLO chosen to maximize the changeset-commit vs
// per-op-WAL sustained-load gap (this figure's axis), shared across
// structures within the K so the capacities are comparable, and the max
// sustained load per structure and variant under it.
func VstoreCapacityTable(points []SweepPoint) *report.Table {
	t := &report.Table{
		Title:   "p99 SLO capacity by commit protocol: max offered load (req/Mcycle)",
		Columns: []string{"K", "p99 SLO", "structure", "commit", "Log+P+Sf", "SP", "SP gain"},
	}
	batches := map[int]bool{}
	var order []int
	for _, p := range points {
		if !batches[p.Batch] {
			batches[p.Batch] = true
			order = append(order, p.Batch)
		}
	}
	sort.Ints(order)
	filter := func(batch int, structure, variant string) []SweepPoint {
		var out []SweepPoint
		for _, p := range points {
			if p.Batch == batch &&
				(structure == "" || p.Structure == structure) &&
				(variant == "" || p.Variant == variant) {
				out = append(out, p)
			}
		}
		return out
	}
	structures := map[string]bool{}
	var sOrder []string
	for _, p := range points {
		if !structures[p.Structure] {
			structures[p.Structure] = true
			sOrder = append(sOrder, p.Structure)
		}
	}
	changeset := func(batch int, want bool) []SweepPoint {
		var out []SweepPoint
		for _, p := range points {
			if p.Batch == batch && (commitProtocol(p.Structure) == "changeset") == want {
				out = append(out, p)
			}
		}
		return out
	}
	for _, k := range order {
		slo := ChooseSLO(changeset(k, true), changeset(k, false))
		for _, s := range sOrder {
			base := MaxSustainedRate(filter(k, s, core.VariantLogPSf.String()), slo)
			sp := MaxSustainedRate(filter(k, s, core.VariantSP.String()), slo)
			gain := "-"
			if base > 0 {
				gain = fmt.Sprintf("%+.0f%%", (sp/base-1)*100)
			}
			t.AddRow(fmt.Sprint(k), fmt.Sprint(slo), s, commitProtocol(s),
				fmt.Sprintf("%.0f", base), fmt.Sprintf("%.0f", sp), gain)
		}
	}
	t.AddNote("SLO per K maximizes the changeset vs per-op-WAL gap, shared across structures so capacities are directly comparable")
	t.AddNote("a rate counts as sustained only with zero queue drops")
	return t
}
