package core

import (
	"testing"

	"specpersist/internal/cpu"
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

// forCase is one row of the variant-rule table: Options o resolved for
// variant v must carry SP hardware want, and New must build that machine.
type forCase struct {
	name string
	o    Options
	v    Variant
	want cpu.SPConfig
}

// checkFor resolves each case through Options.For, checks the SP
// hardware and that For is idempotent, then builds the machine with New
// and checks that it honours the SP config and the controller count.
func checkFor(t *testing.T, cases []forCase) {
	t.Helper()
	for _, tc := range cases {
		got := tc.o.For(tc.v)
		if got.CPU.SP != tc.want {
			t.Errorf("%s: SP = %+v, want %+v", tc.name, got.CPU.SP, tc.want)
		}
		if again := got.For(tc.v); again != got {
			t.Errorf("%s: For is not idempotent: %+v then %+v", tc.name, got, again)
		}
		sys := New(got, nil)
		if sys.CPU == nil || sys.Cache == nil || sys.MC == nil {
			t.Fatalf("%s: system wiring incomplete", tc.name)
		}
		if cfg := sys.CPU.Config().SP; cfg != tc.want {
			t.Errorf("%s: machine SP = %+v, want %+v", tc.name, cfg, tc.want)
		}
		multi, ok := sys.MC.(*memctl.Multi)
		if ok != (tc.o.Controllers > 1) || ok && multi.Controllers() != tc.o.Controllers {
			t.Errorf("%s: %d controllers not honoured (%T)", tc.name, tc.o.Controllers, sys.MC)
		}
	}
}

// withSP returns the Table 2 baseline with the SP256 config edited by f.
func withSP(f func(*cpu.SPConfig)) Options {
	o := DefaultOptions()
	o.CPU.SP = cpu.DefaultSPConfig()
	f(&o.CPU.SP)
	return o
}

func TestNewVariantRules(t *testing.T) {
	sp128 := withSP(func(c *cpu.SPConfig) { c.SSBEntries = 128 })
	checkFor(t, []forCase{
		// A non-speculative variant carries no SP hardware, even when o
		// enables it.
		{"non-speculative drops SP", sp128, VariantLogPSf, cpu.SPConfig{}},
		{"Base drops SP", sp128, VariantBase, cpu.SPConfig{}},
		// A speculative variant defaults to the paper's SP256.
		{"speculative defaults to SP256", DefaultOptions(), VariantSP, cpu.DefaultSPConfig()},
	})

	// The resolved SP256 machine speculates on a barrier trace.
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
	if st := New(DefaultOptions().For(VariantSP), nil).Run(&tb); st.SpecEntries == 0 {
		t.Error("SP system never speculated on a barrier trace")
	}
}

func TestWithSSBOverridesSizeOnly(t *testing.T) {
	// Sizing only the SSB keeps the rest of the SP256 preset (4
	// checkpoints, 512-byte bloom filter) through For.
	sp512 := withSP(func(c *cpu.SPConfig) { c.SSBEntries = 512 })
	want := cpu.DefaultSPConfig()
	want.SSBEntries = 512
	if want.Checkpoints != 4 || want.BloomBytes != 512 {
		t.Fatalf("SP256 preset changed: %+v", cpu.DefaultSPConfig())
	}
	checkFor(t, []forCase{{"preset sizes survive", sp512, VariantSP, want}})
}

func TestNewFunctionalOptions(t *testing.T) {
	// SP sizes and the controller count set on Options compose onto the
	// Table 2 defaults and reach the machine New builds.
	sized := withSP(func(c *cpu.SPConfig) { c.SSBEntries, c.Checkpoints = 512, 8 })
	sized.Controllers = 2
	four := DefaultOptions()
	four.Controllers = 4
	checkFor(t, []forCase{
		{"SP sizes and controllers applied", sized, VariantSP, sized.CPU.SP},
		{"non-speculative drops sized SP", sized, VariantLogPSf, cpu.SPConfig{}},
		{"speculative defaults to SP256", four, VariantSP, cpu.DefaultSPConfig()},
		{"controllers kept without SP", four, VariantBase, cpu.SPConfig{}},
	})
}

func TestMultiControllerSystem(t *testing.T) {
	opts := DefaultOptions()
	opts.Controllers = 4
	sys := New(opts.For(VariantBase), nil)
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

func TestSystemMetricsAndTimeline(t *testing.T) {
	tl := obs.NewTimeline(1 << 10)
	sys := New(DefaultOptions().For(VariantSP), tl)
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
