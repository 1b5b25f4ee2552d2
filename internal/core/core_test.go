package core

import (
	"testing"

	"specpersist/internal/exec"
	"specpersist/internal/isa"
	"specpersist/internal/memctl"
	"specpersist/internal/obs"
	"specpersist/internal/trace"
)

func TestVariantStrings(t *testing.T) {
	want := map[Variant]string{
		VariantBase: "Base", VariantLog: "Log", VariantLogP: "Log+P",
		VariantLogPSf: "Log+P+Sf", VariantSP: "SP",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), s)
		}
		back, err := ParseVariant(s)
		if err != nil || back != v {
			t.Errorf("ParseVariant(%q) = %v, %v", s, back, err)
		}
	}
	if _, err := ParseVariant("nope"); err == nil {
		t.Error("ParseVariant accepted garbage")
	}
	if len(Variants()) != 5 {
		t.Errorf("Variants() = %v", Variants())
	}
}

func TestVariantProperties(t *testing.T) {
	if VariantBase.Transactional() {
		t.Error("Base should not be transactional")
	}
	for _, v := range []Variant{VariantLog, VariantLogP, VariantLogPSf, VariantSP} {
		if !v.Transactional() {
			t.Errorf("%v should be transactional", v)
		}
	}
	if VariantLog.Level() != exec.LevelLog {
		t.Error("Log level wrong")
	}
	if VariantLogP.Level() != exec.LevelLogP {
		t.Error("Log+P level wrong")
	}
	if VariantLogPSf.Level() != exec.LevelFull || VariantSP.Level() != exec.LevelFull {
		t.Error("full levels wrong")
	}
	if VariantLogPSf.Speculative() || !VariantSP.Speculative() {
		t.Error("Speculative() wrong")
	}
}

func TestNewVariantRules(t *testing.T) {
	// Non-speculative variants must not carry SP hardware even if an
	// option enables it.
	sys := New(VariantLogPSf, WithSSB(128))
	if sys.CPU == nil || sys.Cache == nil || sys.MC == nil {
		t.Fatal("system wiring incomplete")
	}
	// SP variant auto-enables SP256 when the options don't.
	sys = New(VariantSP)
	var tb trace.Buffer
	bld := trace.NewBuilder(&tb)
	bld.Store(0x1000, 8, isa.NoReg, isa.NoReg)
	bld.Clwb(0x1000)
	bld.Sfence()
	bld.Pcommit()
	bld.Sfence()
	for i := 0; i < 50; i++ {
		bld.ALU(0)
	}
	st := sys.Run(&tb)
	if st.SpecEntries == 0 {
		t.Error("SP system never speculated on a barrier trace")
	}
}

func TestMultiControllerSystem(t *testing.T) {
	opts := DefaultOptions()
	opts.Controllers = 4
	sys := New(VariantBase, WithOptions(opts))
	var tb trace.Buffer
	bld := trace.NewBuilder(&tb)
	// Writes interleave across controllers; a pcommit must cover all.
	for i := 0; i < 8; i++ {
		addr := uint64(0x1000 + i*64)
		bld.Store(addr, 8, isa.NoReg, isa.NoReg)
		bld.Clwb(addr)
	}
	bld.Sfence()
	bld.Pcommit()
	bld.Sfence()
	st := sys.Run(&tb)
	if st.Committed != uint64(tb.Len()) {
		t.Fatalf("committed %d of %d", st.Committed, tb.Len())
	}
	if st.Mem.Writes != 8 {
		t.Fatalf("controller writes = %d", st.Mem.Writes)
	}
	// 4 controllers saw the broadcast pcommit.
	if st.Mem.Pcommits != 4 {
		t.Fatalf("controller pcommits = %d, want 4 (broadcast)", st.Mem.Pcommits)
	}
}

func TestWithSSBOverridesSizeOnly(t *testing.T) {
	c := sysConfig{opts: DefaultOptions()}
	WithSSB(512)(&c)
	o := c.opts
	if !o.CPU.SP.Enabled || o.CPU.SP.SSBEntries != 512 {
		t.Errorf("WithSSB: %+v", o.CPU.SP)
	}
	if o.CPU.SP.Checkpoints != 4 || o.CPU.SP.BloomBytes != 512 {
		t.Error("WithSSB changed unrelated SP parameters")
	}
}

func TestNewFunctionalOptions(t *testing.T) {
	// Knobs compose onto the Table 2 defaults.
	sys := New(VariantSP, WithSSB(512), WithCheckpoints(8), WithControllers(2))
	cfg := sys.CPU.Config().SP
	if !cfg.Enabled || cfg.SSBEntries != 512 || cfg.Checkpoints != 8 {
		t.Fatalf("SP config not applied: %+v", cfg)
	}
	// A non-speculative variant never carries SP hardware, even when an
	// option enabled it.
	sys = New(VariantLogPSf, WithSSB(512))
	if sys.CPU.Config().SP.Enabled {
		t.Fatal("Log+P+Sf system carries SP hardware")
	}
	// A speculative variant defaults to the paper's SP256 design point.
	sys = New(VariantSP)
	if got := sys.CPU.Config().SP.SSBEntries; got != 256 {
		t.Fatalf("default SP SSB = %d, want 256", got)
	}
	// WithOptions is the bridge from an assembled Options value.
	o := DefaultOptions()
	o.Controllers = 4
	if New(VariantBase, WithOptions(o)).MC.(*memctl.Multi).Controllers() != 4 {
		t.Fatal("WithOptions lost the controller count")
	}
}

func TestNewRejectsInvalidKnobs(t *testing.T) {
	cases := map[string]func(){
		"ssb":         func() { WithSSB(0) },
		"checkpoints": func() { WithCheckpoints(-1) },
		"controllers": func() { WithControllers(-4) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid value did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestSystemMetricsAndTimeline(t *testing.T) {
	tl := obs.NewTimeline(1 << 10)
	sys := New(VariantSP, WithTimeline(tl))
	if sys.Timeline() != tl {
		t.Fatal("Timeline() accessor lost the recorder")
	}
	var tb trace.Buffer
	bld := trace.NewBuilder(&tb)
	bld.Store(0x2000, 8, isa.NoReg, isa.NoReg)
	bld.Clwb(0x2000)
	bld.Sfence()
	bld.Pcommit()
	bld.Sfence()
	for i := 0; i < 50; i++ {
		bld.ALU(0)
	}
	sys.Run(&tb)
	m := sys.Metrics()
	if m[obs.KeyCycles] == 0 || m[obs.KeyCommitted] != uint64(tb.Len()) {
		t.Fatalf("metrics snapshot inconsistent: cycles=%d committed=%d want committed=%d",
			m[obs.KeyCycles], m[obs.KeyCommitted], tb.Len())
	}
	if m["cpu.sp.entries"] == 0 {
		t.Error("SP system recorded no speculative entries in metrics")
	}
	if tl.Len() == 0 {
		t.Error("timeline recorded no events on a barrier trace")
	}
	names := map[string]bool{}
	for _, e := range tl.Events() {
		names[e.Name] = true
	}
	if !names["sp.epoch"] {
		t.Errorf("timeline missing sp.epoch span; got %v", names)
	}
}
