// Command tracer records benchmark instruction traces to disk and replays
// them under arbitrary hardware configurations — record once, sweep many.
//
// Usage:
//
//	tracer record -bench BT -variant Log+P+Sf -scale 0.01 -o bt.sptrace
//	tracer replay -i bt.sptrace -sp -ssb 128
//	tracer info   -i bt.sptrace
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"specpersist/internal/core"
	"specpersist/internal/isa"
	"specpersist/internal/obs"
	"specpersist/internal/trace"
	"specpersist/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracer: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: tracer record|replay|info [flags]")
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "info":
		info(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	benchName := fs.String("bench", "LL", "benchmark abbreviation")
	variant := fs.String("variant", "Log+P+Sf", "software variant to record")
	scale := fs.Float64("scale", 0.01, "Table 1 op-count scale")
	seed := fs.Int64("seed", 1, "operation stream seed")
	overhead := fs.Int("op-overhead", 0, "per-op preamble length (0 = default, negative = none)")
	out := fs.String("o", "trace.sptrace", "output file")
	fs.Parse(args)

	b, err := workload.FindBench(*benchName)
	if err != nil {
		log.Fatal(err)
	}
	v, err := core.ParseVariant(*variant)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		log.Fatal(err)
	}
	if err := recordWorkload(b, v, *scale, *seed, *overhead, w); err != nil {
		log.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d instructions to %s\n", w.Count(), *out)
}

// recordWorkload writes the measured phase workload.Run simulates for the
// same bench, variant, scale, seed and preamble length to sink.
func recordWorkload(b workload.Bench, v core.Variant, scale float64, seed int64, overhead int, sink trace.Sink) error {
	gen, err := workload.NewGenerator(b, workload.RunConfig{Variant: v, Scale: scale, Seed: seed, OpOverhead: overhead}, sink)
	if err != nil {
		return err
	}
	for gen.Next() {
	}
	return gen.Check()
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "trace.sptrace", "input trace file")
	sp := fs.Bool("sp", false, "enable Speculative Persistence")
	ssb := fs.Int("ssb", 256, "SSB entries (with -sp)")
	ckpts := fs.Int("checkpoints", 4, "checkpoint entries (with -sp)")
	controllers := fs.Int("controllers", 1, "memory controllers")
	timeline := fs.String("timeline", "", "write a Chrome trace_event JSON timeline to this file")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	var tl *obs.Timeline
	if *timeline != "" {
		tl = obs.NewTimeline(obs.DefaultTimelineCap)
	}
	sys := replaySystem(*sp, *ssb, *ckpts, *controllers, tl)
	st := sys.Run(r)
	if err := r.Err(); err != nil {
		log.Fatal(err)
	}
	if tl != nil {
		out, err := os.Create(*timeline)
		if err != nil {
			log.Fatal(err)
		}
		if err := tl.WriteTrace(out); err != nil {
			log.Fatal(err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cycles            %d\n", st.Cycles)
	fmt.Printf("committed instrs  %d (IPC %.2f)\n", st.Committed, float64(st.Committed)/float64(st.Cycles))
	fmt.Printf("fetch-queue stalls %d\n", st.FetchQStallCycles)
	fmt.Printf("pcommits          %d (max in flight %d)\n", st.Pcommits, st.MaxConcurrentPcommits)
	if *sp {
		fmt.Printf("speculation       %d entries, %d epochs, ckpt max %d, SSB max %d\n",
			st.SpecEntries, st.SpecEpochs, st.CheckpointsMaxUsed, st.SSBMaxUsed)
	}
	fmt.Printf("\n%s", obs.FormatStallReport(sys.Metrics()))
}

// replaySystem builds the machine a recording replays on: the fenced
// Log+P+Sf core, or with sp the SP core with the given SSB and checkpoint
// sizes. tl, when non-nil, records the replay's timeline.
func replaySystem(sp bool, ssb, ckpts, controllers int, tl *obs.Timeline) *core.System {
	variant := core.VariantLogPSf
	copts := []core.Option{core.WithControllers(controllers)}
	if sp {
		variant = core.VariantSP
		copts = append(copts, core.WithSSB(ssb), core.WithCheckpoints(ckpts))
	}
	if tl != nil {
		copts = append(copts, core.WithTimeline(tl))
	}
	return core.New(variant, copts...)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "trace.sptrace", "input trace file")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	var counts [16]uint64
	var total uint64
	for {
		in, ok := r.Next()
		if !ok {
			break
		}
		counts[in.Op]++
		total++
	}
	if err := r.Err(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instructions %d\n", total)
	for op := isa.ALU; op <= isa.Mfence; op++ {
		if counts[op] > 0 {
			fmt.Printf("  %-11s %d\n", op, counts[op])
		}
	}
}
