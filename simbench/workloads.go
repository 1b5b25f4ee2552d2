package main

import (
	"math"
	"strconv"
	"strings"

	"specpersist/internal/cluster"
	"specpersist/internal/core"
	"specpersist/internal/fault"
	"specpersist/internal/litmus"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/workload"
)

// suiteVariants are the paper-suite's two machines, keyed as in metric
// names.
var suiteVariants = []struct {
	key string
	v   core.Variant
}{{"logpsf", core.VariantLogPSf}, {"sp", core.VariantSP}}

// callNames lists the call_s.* boundaries in report order.
func callNames() []string {
	var out []string
	for _, b := range workload.Table1() {
		for _, v := range suiteVariants {
			out = append(out, "call_s."+b.Name+"."+v.key)
		}
	}
	out = append(out, "call_s.fleet")
	for _, s := range pstruct.AllNames() {
		out = append(out, "call_s.fault."+s)
	}
	return append(out, "call_s.litmus", "call_s.chaos", "call_s.controls")
}

// paperSuite runs every Table 1 structure under Log+P+Sf and under SP,
// serially on one goroutine, straight through workload.Run (never the
// sweep engine's result cache). An operation is one workload.Run; it fails
// on an error (which includes the structure's Check) and, for the SP run,
// when SP commits a different instruction count than Log+P+Sf.
func paperSuite(seed int64, sz sizes) *bench {
	run := func(b workload.Bench, v core.Variant) (workload.Result, error) {
		return workload.Run(b, workload.RunConfig{Variant: v, Scale: sz.suiteScale, Seed: seed})
	}
	return &bench{
		batch: func(tr *tracer, r *round) {
			logRatio := 0.0
			for _, b := range workload.Table1() {
				var res [2]workload.Result
				ok := true
				for i, sv := range suiteVariants {
					r.attempted++
					var err error
					tr.call(r, "call_s."+b.Name+"."+sv.key, func() { res[i], err = run(b, sv.v) })
					if err != nil {
						r.fail(1, "%s %s: %v", b.Name, sv.v, err)
						ok = false
						continue
					}
					r.record(res[i])
					r.instrs += res[i].Stats.Committed
					r.addCounts(res[i].Metrics, sv.key)
				}
				if !ok {
					continue
				}
				if res[0].Stats.Committed != res[1].Stats.Committed {
					r.fail(1, "%s: SP committed %d instructions, Log+P+Sf %d", b.Name, res[1].Stats.Committed, res[0].Stats.Committed)
				}
				logRatio += math.Log(float64(res[1].Stats.Cycles) / float64(res[0].Stats.Cycles))
			}
			r.sim["sp_cycle_ratio"] = math.Exp(logRatio / float64(len(workload.Table1())))
			r.finishCounts()
		},
	}
}

// fleetConfig is the fleet-serve shape: 16 SP nodes serving the versioned
// store, R=3 with a majority write quorum, group commit K=4, and open-loop
// Poisson arrivals on a fault-free network. The rate is half of capacity:
// at seed 1 this fleet's goodput levels off near 13,000 req/Mcycle and it
// drops requests from 12,800 on. At 6,400 it completes every request in
// 0.91 commit groups per request, against 1.99 at 800, so K=4 is in use.
func fleetConfig(seed int64, requests int) cluster.Config {
	cfg := cluster.DefaultConfig()
	cfg.Structure = "VT"
	cfg.Variant = core.VariantSP
	cfg.Nodes = 16
	cfg.Replicas = 3
	cfg.Quorum = 0
	cfg.BatchMax = 4
	cfg.BatchDeadline = 2000
	cfg.Rate = 6400
	cfg.Requests = requests
	cfg.Keyspace = 4096
	cfg.Warmup = 256
	cfg.Seed = seed
	return cfg
}

// fleetServe runs one audited fleet. An operation is one request; it fails
// when the audit flags it (each violation names one update), and every
// request fails when the run errors. Drops and timeouts are modelled
// outcomes, counted but not failed.
func fleetServe(seed int64, sz sizes) *bench {
	cfg := fleetConfig(seed, sz.fleetRequests)
	return &bench{
		batch: func(tr *tracer, r *round) {
			r.attempted = cfg.Requests
			var (
				res cluster.Result
				err error
			)
			tr.call(r, "call_s.fleet", func() { res, err = cluster.RunAudited(cfg) })
			if err != nil {
				r.fail(cfg.Requests, "fleet: %v", err)
				return
			}
			r.record(res)
			st := res.Stats
			if res.Audit == nil {
				r.fail(cfg.Requests, "fleet: audited run returned no audit")
			} else if res.Audit.Total > 0 {
				r.fail(min(res.Audit.Total, cfg.Requests), "fleet: audit found %d violations, first %v", res.Audit.Total, res.Audit.Violations[0])
			}
			if got := st.Completed + st.Dropped + st.Failed + st.Unavailable + st.TimedOut + st.Shed; got != st.Offered || st.Offered != uint64(cfg.Requests) {
				r.problems = append(r.problems, "fleet: request accounting does not add up to the offered load")
			}
			r.reqs = st.Offered
			r.addCounts(res.Metrics, "")
			r.instrs = uint64(r.counts["cpu.committed"])
			r.counts["cluster.net_msgs"] = float64(st.NetMsgs)
			r.counts["cluster.repl_msgs"] = float64(st.ReplMsgs)
			r.counts["cluster.groups"] = float64(st.Groups)
			r.counts["cluster.retries"] = float64(st.Retries)
			r.counts["cluster.timed_out"] = float64(st.TimedOut)
			r.counts["pcommits_per_req"] = r.counts["mem.pcommits"] / float64(st.Offered)
			r.finishCounts()

			r.sim["fleet_p50_cycles"] = float64(res.P50)
			r.sim["fleet_p999_cycles"] = float64(res.P999)
			r.sim["fleet_samples"] = float64(res.Hist.N)
		},
	}
}

// faultSeed fixes the crash campaign's operation stream. An exhaustive
// campaign's trial count and cost hinge on the few operations it probes
// (one red-black rebalance can triple RT's share), so a seeded stream
// would make trials_per_s a property of the seed rather than of the code.
const faultSeed = 1

// litmusMaxStates caps each litmus program's state-space enumeration. A
// generated program's cost is heavy-tailed (one in a few hundred runs into
// the default million-state cap); a lower cap keeps one program from
// deciding a round's time. Capped programs prove nothing and are counted
// in litmus.capped, never failed.
const litmusMaxStates = 100_000

// campaigns runs the fixed verification mix on the worker pool: the
// exhaustive torn+recrash crash campaign over every structure under
// Log+P+Sf, a litmus campaign of the curated corpus plus seeded programs,
// a chaos campaign of seeded plans on the default chaos fleet, and each
// engine's negative control. The crash campaign and the controls have
// fixed inputs; the seed drives the litmus programs and the chaos plans.
// An operation is one trial; it fails on any violation in a safe
// configuration. A negative control that is not caught fails all of its
// trials.
func campaigns(seed int64, sz sizes, workers int) *bench {
	return &bench{
		batch: func(tr *tracer, r *round) {
			for _, s := range sz.faultStructures {
				eng := &fault.Engine{Workers: workers, Samples: 1, Torn: true, Recrash: true}
				var (
					rep fault.Report
					err error
				)
				tr.call(r, "call_s.fault."+s, func() {
					rep, err = eng.Run(fault.Campaign{Structures: []string{s}, Variant: core.VariantLogPSf, Seed: faultSeed, Ops: sz.faultOps, Exhaustive: true})
				})
				if err != nil {
					r.attempted++
					r.fail(1, "fault %s: %v", s, err)
					continue
				}
				r.record(rep)
				r.attempted += rep.Trials
				if rep.Violations > 0 {
					r.fail(rep.Violations, "fault %s: %d violating trials", s, rep.Violations)
				}
				r.counts["fault.trials"] += float64(rep.Trials)
				r.counts["fault.crashes"] += float64(rep.Crashes)
				for _, sr := range rep.Structures {
					r.counts["pmem.torn_lines"] += float64(sr.TornLines)
				}
			}

			var (
				lit litmus.CampaignResult
				err error
			)
			lcfg := litmus.CampaignConfig{Curated: true, Programs: sz.litmusPrograms, Seed: seed, Workers: workers, MaxStates: litmusMaxStates}
			tr.call(r, "call_s.litmus", func() { lit, err = litmus.Campaign(lcfg) })
			if err != nil {
				r.attempted++
				r.fail(1, "litmus: %v", err)
			} else {
				r.record(lit)
				r.attempted += len(lit.Trials)
				if len(lit.BadTrials) > 0 {
					r.fail(len(lit.BadTrials), "litmus: %d violating trials", len(lit.BadTrials))
				}
				r.counts["litmus.trials"] = float64(len(lit.Trials))
				r.counts["litmus.ref_states"] = float64(lit.RefStates)
				r.counts["litmus.mode_runs"] = float64(lit.ModeRuns)
				r.counts["litmus.capped"] = float64(lit.Capped)
			}

			var ch cluster.CampaignResult
			ccfg := cluster.CampaignConfig{Base: cluster.DefaultChaosBase(), Trials: sz.chaosTrials, Seed: seed, Workers: workers}
			tr.call(r, "call_s.chaos", func() { ch, err = cluster.Campaign(ccfg) })
			if err != nil {
				r.attempted += ccfg.Trials
				r.fail(ccfg.Trials, "chaos: %v", err)
			} else {
				r.record(ch)
				r.attempted += len(ch.Trials)
				if len(ch.BadTrials) > 0 {
					r.fail(len(ch.BadTrials), "chaos: %d violating trials", len(ch.BadTrials))
				}
				r.counts["chaos.trials"] = float64(len(ch.Trials))
				for _, t := range ch.Trials {
					r.counts["cluster.timed_out"] += float64(t.TimedOut)
				}
			}

			tr.call(r, "call_s.controls", func() { runControls(r, workers) })
			r.trials = uint64(r.attempted)
		},
	}
}

// control is one engine's seeded bug: run reports its trials and whether
// the engine caught it. Controls use fixed inputs, known to be caught, so
// the mix proves its oracles for every workload seed.
type control struct {
	name string
	run  func(workers int) (trials int, caught bool, out any, err error)
}

var controls = []control{
	{"fault Log+P (no fences)", func(w int) (int, bool, any, error) {
		rep, err := (&fault.Engine{Workers: w, Samples: 1, Torn: true}).Run(fault.Campaign{
			Structures: []string{"LL"}, Variant: core.VariantLogP, Seed: 1, Warmup: 40, Ops: 2, Exhaustive: true})
		return rep.Trials, rep.Violations > 0, rep, err
	}},
	{"fault VstoreUnsafeFlip", func(w int) (int, bool, any, error) {
		rep, err := (&fault.Engine{Workers: w, Samples: 1, Torn: true, Recrash: true}).Run(fault.Campaign{
			Structures: []string{"VT"}, Variant: core.VariantLogPSf, Seed: 1, Exhaustive: true, VstoreUnsafeFlip: true})
		return rep.Trials, rep.Violations > 0, rep, err
	}},
	{"litmus Weaken", func(w int) (int, bool, any, error) {
		res, err := litmus.Campaign(litmus.CampaignConfig{Curated: true, Weaken: true, Workers: w})
		return len(res.Trials), res.Violations > 0, res, err
	}},
	{"chaos BreakDedup", func(w int) (int, bool, any, error) {
		base := cluster.DefaultChaosBase()
		base.BreakDedup = true
		res, err := cluster.Campaign(cluster.CampaignConfig{Base: base, Trials: 8, Seed: 7, Workers: w})
		return len(res.Trials), res.Violations > 0, res, err
	}},
}

func runControls(r *round, workers int) {
	for _, c := range controls {
		trials, caught, out, err := c.run(workers)
		trials = max(trials, 1)
		r.attempted += trials
		r.counts["controls.trials"] += float64(trials)
		switch {
		case err != nil:
			r.fail(trials, "negative control %s: %v", c.name, err)
		case !caught:
			r.fail(trials, "negative control %s was not caught", c.name)
		default:
			r.counts["controls.caught"]++
			r.record(out)
		}
	}
}

// summedCounts are machine counters summed over every run of a round.
var summedCounts = map[string]bool{
	"cpu.committed": true, "cpu.stall.ssb_full_cycles": true, "cpu.stall.checkpoint_cycles": true,
	"cpu.sp.epochs": true, "cpu.sp.rollbacks": true, "cpu.sp.rollback_cycles": true,
	"cpu.sp.bloom.false_positives": true, "cpu.sp.bloom.queries": true,
	"cache.l1.misses": true, "cache.l2.misses": true, "cache.l3.misses": true, "cache.writebacks": true,
	"mem.pcommits": true, "mem.wpq.stalls": true, "mem.writes": true,
	"txn.txns": true, "txn.entries": true, "vstore.commits": true, "vstore.nodes_written": true,
}

// variantCounts are machine counters also kept per paper-suite variant.
var variantCounts = map[string]bool{"cpu.cycles": true, "cpu.stall.fence_cycles": true, "cpu.stall.fetchq_cycles": true}

// addCounts sums a machine snapshot into r.counts. Fleet snapshots prefix
// each node's keys with "nodeN." and "coreM."; those are stripped so every
// workload reports the same names. A non-empty variant also files the
// variantCounts under "<key>.<variant>".
func (r *round) addCounts(snap obs.Snapshot, variant string) {
	for k, v := range snap {
		for _, p := range []string{"node", "core"} {
			if rest, ok := strings.CutPrefix(k, p); ok {
				if i := strings.IndexByte(rest, '.'); i > 0 {
					if _, err := strconv.Atoi(rest[:i]); err == nil {
						k = rest[i+1:]
					}
				}
			}
		}
		if summedCounts[k] {
			r.counts[k] += float64(v)
		}
		if variant != "" && variantCounts[k] {
			r.counts[k+"."+variant] += float64(v)
		}
	}
}

// finishCounts derives the ratios from the summed counts.
func (r *round) finishCounts() {
	if q := r.counts["cpu.sp.bloom.queries"]; q > 0 {
		r.counts["cpu.sp.bloom.fp_rate"] = r.counts["cpu.sp.bloom.false_positives"] / q
	}
}
