// Quickstart: build a persistent linked list on simulated NVMM, run
// failure-safe transactional operations against it, simulate the same
// operations on the baseline pipeline and on Speculative Persistence
// hardware, and print the speedup.
package main

import (
	"fmt"
	"log"

	"specpersist/internal/core"
	"specpersist/internal/exec"
	"specpersist/internal/obs"
	"specpersist/internal/pstruct"
	"specpersist/internal/trace"
	"specpersist/internal/txn"
)

func main() {
	log.SetFlags(0)

	// 1. An execution environment over simulated non-volatile memory, at
	//    the fully fenced (failure-safe) persistence level.
	env := exec.New()
	env.Level = exec.LevelFull

	// 2. A write-ahead-log transaction manager and a persistent sorted
	//    linked list whose updates run through it.
	mgr := txn.NewManager(env, 64)
	list := pstruct.NewList(env, mgr)

	// 3. Record the instruction trace of 200 insert/delete operations
	//    (every load, store, clwb, pcommit and sfence the operations
	//    perform, with their data dependences).
	var tr trace.Buffer
	env.SetBuilder(trace.NewBuilder(&tr))
	for i := 0; i < 200; i++ {
		// Some application work per request (key derivation, validation,
		// serialization...) — the compute SP overlaps with persist
		// barriers.
		dep := env.Compute()
		for j := 0; j < 800; j++ {
			dep = env.Compute(dep)
		}
		list.Apply(uint64(i*37) % 256)
	}
	env.SetBuilder(nil)
	if err := list.Check(); err != nil {
		log.Fatalf("list invariants: %v", err)
	}
	fmt.Printf("list size after 200 transactional ops: %d nodes\n", list.Size())
	fmt.Printf("trace: %d instructions\n\n", tr.Len())

	// 4. Simulate the trace on the paper's Table 2 baseline, then on the
	//    same machine with Speculative Persistence (SP256).
	baseline := core.New(core.DefaultOptions().For(core.VariantLogPSf), nil)
	tr.Rewind()
	st1 := baseline.Run(&tr)

	sp := core.New(core.DefaultOptions().For(core.VariantSP), nil)
	tr.Rewind()
	st2 := sp.Run(&tr)

	fmt.Printf("baseline pipeline : %9d cycles (%d sfences stall the ROB head)\n", st1.Cycles, st1.Sfences)
	fmt.Printf("with SP256        : %9d cycles (%d speculation entries, %d epochs)\n",
		st2.Cycles, st2.SpecEntries, st2.SpecEpochs)
	fmt.Printf("speedup           : %.2fx — the sfence-pcommit-sfence latency is hidden\n",
		float64(st1.Cycles)/float64(st2.Cycles))

	// 5. Ask the unified metrics snapshot where the baseline's cycles went:
	//    the fence share is the latency SP hides.
	fmt.Printf("\n%s", obs.FormatStallReport(baseline.Metrics()))
}
