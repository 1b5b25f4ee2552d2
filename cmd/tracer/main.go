// Command tracer records benchmark instruction traces to disk and replays
// them under arbitrary hardware configurations — record once, sweep many.
//
// Usage:
//
//	tracer record -bench BT -variant Log+P+Sf -scale 0.01 -o bt.sptrace
//	tracer replay -i bt.sptrace -sp -ssb 128
//	tracer info   -i bt.sptrace
//
// A flag the subcommand does not read is an error, as are -ssb and
// -checkpoints without -sp.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"specpersist/internal/cli"
	"specpersist/internal/core"
	"specpersist/internal/cpu"
	"specpersist/internal/isa"
	"specpersist/internal/obs"
	"specpersist/internal/trace"
	"specpersist/internal/workload"
)

type options struct {
	bench    string
	variant  string
	scale    float64
	seed     int64
	overhead int
	out      string

	in          string
	sp          bool
	ssb         int
	checkpoints int
	controllers int
	timeline    string
}

// The run modes, one per subcommand.
const (
	recordMode cli.Mode = 1 << iota
	replayMode
	infoMode
)

var subcommands = map[string]cli.Mode{"record": recordMode, "replay": replayMode, "info": infoMode}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracer: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return errors.New("usage: tracer record|replay|info [flags]")
	}
	mode, ok := subcommands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (want record, replay or info)", args[0])
	}
	fs := cli.NewSet("tracer "+args[0], "record", "replay", "info")
	var o options
	def := cpu.DefaultSPConfig()
	fs.String(&o.bench, "bench", "LL", recordMode, "benchmark abbreviation")
	fs.String(&o.variant, "variant", "Log+P+Sf", recordMode, "software variant to record")
	fs.Float64(&o.scale, "scale", 0.01, recordMode, "Table 1 op-count scale")
	fs.Int64(&o.seed, "seed", 1, recordMode, "operation stream seed")
	fs.Int(&o.overhead, "op-overhead", 0, recordMode, "per-op preamble length (0 = default, negative = none)")
	fs.String(&o.out, "o", "trace.sptrace", recordMode, "output file")
	fs.String(&o.in, "i", "trace.sptrace", replayMode|infoMode, "input trace file")
	fs.Bool(&o.sp, "sp", false, replayMode, "enable Speculative Persistence")
	fs.Int(&o.ssb, "ssb", def.SSBEntries, replayMode, "SSB entries").Min(1).Requires("sp")
	fs.Int(&o.checkpoints, "checkpoints", def.Checkpoints, replayMode, "checkpoint entries").Min(1).Requires("sp")
	fs.Int(&o.controllers, "controllers", 1, replayMode, "memory controllers").Min(1)
	fs.String(&o.timeline, "timeline", "", replayMode, "write a Chrome trace_event JSON timeline to this file")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if err := fs.Check(mode); err != nil {
		return err
	}
	switch mode {
	case recordMode:
		return record(o, w)
	case replayMode:
		return replay(o, w)
	default:
		return info(o, w)
	}
}

func record(o options, w io.Writer) error {
	b, err := workload.FindBench(o.bench)
	if err != nil {
		return err
	}
	v, err := core.ParseVariant(o.variant)
	if err != nil {
		return err
	}
	f, err := os.Create(o.out)
	if err != nil {
		return err
	}
	defer f.Close()
	tw, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	if err := recordWorkload(b, v, o.scale, o.seed, o.overhead, tw); err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "recorded %d instructions to %s\n", tw.Count(), o.out)
	return nil
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

func replay(o options, w io.Writer) error {
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var tl *obs.Timeline
	if o.timeline != "" {
		tl = obs.NewTimeline(obs.DefaultTimelineCap)
	}
	sys := replaySystem(o, tl)
	st := sys.Run(r)
	if err := r.Err(); err != nil {
		return err
	}
	if tl != nil {
		out, err := os.Create(o.timeline)
		if err != nil {
			return err
		}
		if err := tl.WriteTrace(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "cycles            %d\n", st.Cycles)
	fmt.Fprintf(w, "committed instrs  %d (IPC %.2f)\n", st.Committed, float64(st.Committed)/float64(st.Cycles))
	fmt.Fprintf(w, "fetch-queue stalls %d\n", st.FetchQStallCycles)
	fmt.Fprintf(w, "pcommits          %d (max in flight %d)\n", st.Pcommits, st.MaxConcurrentPcommits)
	if o.sp {
		fmt.Fprintf(w, "speculation       %d entries, %d epochs, ckpt max %d, SSB max %d\n",
			st.SpecEntries, st.SpecEpochs, st.CheckpointsMaxUsed, st.SSBMaxUsed)
	}
	fmt.Fprintf(w, "\n%s", obs.FormatStallReport(sys.Metrics()))
	return nil
}

// replaySystem builds the machine a recording replays on: the fenced
// Log+P+Sf core, or with -sp the SP core at the -ssb and -checkpoints
// sizes. tl, when non-nil, records the replay's timeline.
func replaySystem(o options, tl *obs.Timeline) *core.System {
	v := core.VariantLogPSf
	if o.sp {
		v = core.VariantSP
	}
	m := core.DefaultOptions().For(v)
	if o.sp {
		m.CPU.SP.SSBEntries = o.ssb
		m.CPU.SP.Checkpoints = o.checkpoints
	}
	m.Controllers = o.controllers
	return core.New(m, tl)
}

func info(o options, w io.Writer) error {
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
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
		return err
	}
	fmt.Fprintf(w, "instructions %d\n", total)
	for op := isa.ALU; op <= isa.Mfence; op++ {
		if counts[op] > 0 {
			fmt.Fprintf(w, "  %-11s %d\n", op, counts[op])
		}
	}
	return nil
}
