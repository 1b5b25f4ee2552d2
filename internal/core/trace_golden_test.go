package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specpersist/internal/isa"
	"specpersist/internal/obs"
	"specpersist/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyBarrierTrace is a minimal Log+P+Sf sequence: two persist barriers
// around flushed stores, padded with ALU work so the pipeline drains.
func tinyBarrierTrace() *trace.Buffer {
	var tb trace.Buffer
	bld := trace.NewBuilder(&tb)
	for txn := 0; txn < 2; txn++ {
		addr := uint64(0x1000 + txn*256)
		bld.Store(addr, 8, isa.NoReg, isa.NoReg)
		bld.Store(addr+64, 8, isa.NoReg, isa.NoReg)
		bld.Clwb(addr)
		bld.Clwb(addr + 64)
		bld.Sfence()
		bld.Pcommit()
		bld.Sfence()
		r := bld.ALU(0)
		for i := 0; i < 100; i++ {
			r = bld.ALU(0, r)
		}
	}
	return &tb
}

// TestTimelineGoldenTrace pins the exact Chrome trace_event JSON the
// simulator emits for a tiny barrier trace under SP. The golden file
// guards both the trace format (Perfetto/chrome://tracing compatibility)
// and the determinism of event recording; regenerate with
//
//	go test ./internal/core -run Golden -update
func TestTimelineGoldenTrace(t *testing.T) {
	tl := obs.NewTimeline(1 << 12)
	sys := New(DefaultOptions().For(VariantSP), tl)
	sys.Run(tinyBarrierTrace())

	var buf bytes.Buffer
	if err := tl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("trace output is not valid JSON:\n%s", buf.Bytes())
	}

	golden := filepath.Join("testdata", "tiny_barrier_trace.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output diverged from golden file %s;\nrerun with -update if the change is intended\ngot:\n%s", golden, buf.Bytes())
	}

	// The golden trace must show the paper's two phenomena as named
	// duration events: the barrier stalling retirement and the SP epoch
	// speculating past it.
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans[e.Name] = true
		}
	}
	for _, want := range []string{"barrier.stall", "sp.epoch"} {
		if !spans[want] {
			t.Errorf("golden trace has no %q duration event; spans: %v", want, spans)
		}
	}
}
