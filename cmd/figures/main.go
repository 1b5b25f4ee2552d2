// Command figures regenerates every table and figure of the paper's
// evaluation (Tables 1-3, Figures 8-14).
//
// Usage:
//
//	figures                  # everything at the default scale
//	figures -fig 8           # one figure
//	figures -table 3         # one table
//	figures -scale 0.05      # bigger runs (1.0 = paper-scale op counts)
//	figures -j 8             # run simulations on 8 workers
//	figures -cache .sweepcache  # reuse completed runs across invocations
//	figures -latency -only   # storage-server throughput-latency sweep
//	figures -cluster -only   # replicated-fleet quorum capacity and rejoin
//
// The simulations behind each figure execute through the internal/sweep
// engine: -j parallelizes them and -cache memoizes them on disk, and the
// rendered output is byte-identical regardless of either flag.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"specpersist/internal/cluster"
	"specpersist/internal/core"
	"specpersist/internal/multicore"
	"specpersist/internal/report"
	"specpersist/internal/service"
	"specpersist/internal/sweep"
	"specpersist/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		fig       = flag.Int("fig", 0, "figure number to regenerate (8-14; 0 = all)")
		table     = flag.Int("table", 0, "table number to regenerate (1-3; 0 = all)")
		scale     = flag.Float64("scale", 0.02, "scale factor for Table 1 op counts (1.0 = paper)")
		seed      = flag.Int64("seed", 1, "operation stream seed")
		only      = flag.Bool("only", false, "with -fig/-table, print only that item")
		ablation  = flag.Bool("ablation", false, "also run the SP design-choice ablations")
		csv       = flag.Bool("csv", false, "emit CSV instead of text tables")
		chart     = flag.Bool("chart", false, "also render bar charts for the overhead figures")
		jobs      = flag.Int("j", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		cacheDir  = flag.String("cache", "", "result cache directory (empty = no cache)")
		progress  = flag.Bool("progress", false, "report per-simulation progress on stderr")
		stalls    = flag.Bool("stalls", false, "print per-benchmark stall attribution (Log+P+Sf and SP)")
		conflicts = flag.Bool("conflicts", false, "print the multi-core conflict-sensitivity table (real BLT probes)")
		latency   = flag.Bool("latency", false, "print the storage-server throughput-latency sweep (open-loop arrivals, group commit)")
		vstoreF   = flag.Bool("vstore", false, "print the per-op-WAL vs changeset-commit comparison (versioned COW store)")
		clusterF  = flag.Bool("cluster", false, "print the replicated-fleet figures (quorum capacity, RTT sensitivity, replica rejoin)")
		chaosF    = flag.Bool("chaos", false, "print the chaos-capacity figure (tail latency and completion under drops and partitions)")
	)
	flag.Parse()

	eng := &sweep.Engine{Workers: *jobs}
	if *cacheDir != "" {
		c, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		eng.Cache = c
	}
	if *progress {
		eng.Progress = os.Stderr
	}
	s := workload.NewSuite(*scale, *seed)
	s.Runner = eng
	// done reports on stderr the time since the previous output: a sweep
	// runs before the first table drawn from it, so its time lands there.
	last := time.Now()
	done := func(name string) {
		fmt.Fprintf(os.Stderr, "[%s in %s]\n", name, time.Since(last).Round(time.Millisecond))
		last = time.Now()
	}
	emit := func(name string, f func() *report.Table) {
		tbl := f()
		if *csv {
			fmt.Printf("# %s\n%s\n", tbl.Title, tbl.CSV())
		} else {
			fmt.Println(tbl.String())
		}
		done(name)
	}

	wantTable := func(n int) bool {
		return (*table == 0 && *fig == 0 && !*only) || *table == n
	}
	wantFig := func(n int) bool {
		return (*table == 0 && *fig == 0 && !*only) || *fig == n
	}

	if wantTable(1) {
		emit("table1", func() *report.Table { return workload.Table1Report() })
	}
	if wantTable(2) {
		emit("table2", func() *report.Table { return workload.Table2Report() })
	}
	if wantTable(3) {
		emit("table3", func() *report.Table { return workload.Table3Report() })
	}
	if wantFig(8) {
		tbl := s.Fig8()
		emit("fig8", func() *report.Table { return tbl })
		if *chart {
			// One bar chart per variant column.
			for col := 1; col < len(tbl.Columns); col++ {
				fmt.Println(report.ChartFromTable(tbl, col, "%").String())
			}
		}
	}
	if wantFig(9) {
		emit("fig9", func() *report.Table { return s.Fig9() })
	}
	if wantFig(10) {
		emit("fig10", func() *report.Table { return s.Fig10() })
	}
	if wantFig(11) {
		emit("fig11", func() *report.Table { return s.Fig11() })
	}
	if wantFig(12) {
		emit("fig12", func() *report.Table { return s.Fig12() })
	}
	if wantFig(13) {
		tbl := s.Fig13()
		emit("fig13", func() *report.Table { return tbl })
		if *chart {
			fmt.Println(report.ChartFromTable(tbl, 4, "%").String())
		}
	}
	if wantFig(14) {
		emit("fig14", func() *report.Table { return s.Fig14() })
	}
	if *ablation {
		emit("ablation", func() *report.Table { return s.Ablation() })
		emit("ckpt-sweep", func() *report.Table { return s.CheckpointSweep() })
		emit("stall-breakdown", func() *report.Table { return s.StallBreakdown() })
		emit("log-footprint", func() *report.Table { return s.LogFootprint() })
	}
	if *stalls {
		for _, b := range workload.Table1() {
			for _, v := range []core.Variant{core.VariantLogPSf, core.VariantSP} {
				bench, variant := b, v
				emit("stalls", func() *report.Table { return s.StallAttribution(bench, variant) })
			}
		}
	}
	if *conflicts {
		emit("conflicts", func() *report.Table { return multicore.ConflictTable(*seed) })
	}
	// One helper per serving layer runs a figure's default grid at the
	// command's seed and worker count.
	serviceSweep := func(sc service.SweepConfig) []service.SweepPoint {
		sc.Base.Seed = *seed
		sc.Workers = *jobs
		points, err := service.LatencySweep(sc)
		if err != nil {
			log.Fatal(err)
		}
		return points
	}
	clusterSweep := func(sc cluster.SweepConfig) []cluster.SweepPoint {
		sc.Base.Seed = *seed
		sc.Workers = *jobs
		points, err := cluster.Sweep(sc)
		if err != nil {
			log.Fatal(err)
		}
		return points
	}
	if *latency {
		sc := service.DefaultSweepConfig()
		points := serviceSweep(sc)
		emit("latency", func() *report.Table { return service.LatencyTable(points) })
		emit("latency-slo", func() *report.Table { return service.SLOTable(points) })
		if *chart {
			for _, b := range sc.Batches {
				for _, n := range sc.Cores {
					fmt.Println(service.ThroughputLatencyCurve(points, b, n).String())
				}
			}
			midRate := sc.Rates[len(sc.Rates)/2]
			fmt.Println(service.LatencyCDFChart(points, midRate, sc.Batches[0], sc.Cores[0]).String())
		}
	}
	if *vstoreF {
		points := serviceSweep(service.DefaultVstoreSweepConfig())
		emit("vstore", func() *report.Table { return service.VstoreTable(points) })
		emit("vstore-slo", func() *report.Table { return service.VstoreCapacityTable(points) })
	}
	if *chaosF {
		points := clusterSweep(cluster.DefaultChaosSweepConfig())
		emit("cluster-chaos", func() *report.Table { return cluster.ChaosCapacityTable(points) })
	}
	if *clusterF {
		points := clusterSweep(cluster.DefaultSweepConfig())
		emit("cluster-capacity", func() *report.Table { return cluster.CapacityTable(points) })
		points = clusterSweep(cluster.DefaultRTTSweepConfig())
		emit("cluster-rtt", func() *report.Table { return cluster.CapacityTable(points) })
		fmt.Println(cluster.RejoinCurve(clusterSweep(cluster.DefaultRejoinConfig())).String())
		done("cluster-rejoin")
	}
}
