package core

import (
	"fmt"

	"specpersist/internal/cpu"
	"specpersist/internal/obs"
)

// Option is a functional configuration knob for New. Options compose left
// to right on top of the Table 2 defaults, so a call reads as the delta
// from the paper's baseline machine:
//
//	sys := core.New(core.VariantSP, core.WithSSB(512), core.WithTimeline(tl))
type Option func(*sysConfig)

// sysConfig is the state Options mutate before New assembles the machine.
type sysConfig struct {
	opts Options
	tl   *obs.Timeline
}

// WithOptions replaces the whole option struct (escape hatch for callers
// that already hold an assembled Options, e.g. the workload runner).
// Knob-style Options applied after it still refine the result.
func WithOptions(o Options) Option {
	return func(c *sysConfig) { c.opts = o }
}

// WithControllers sets the number of interleaved memory controllers.
func WithControllers(n int) Option {
	if n <= 0 {
		panic(fmt.Sprintf("core: controller count must be positive, got %d", n))
	}
	return func(c *sysConfig) { c.opts.Controllers = n }
}

// ensureSP upgrades the configuration to the paper's SP design point if
// speculation is not yet enabled, keeping knobs already set.
func ensureSP(o *Options) {
	if !o.CPU.SP.Enabled {
		o.CPU.SP = cpu.DefaultSPConfig()
	}
}

// WithSSB enables Speculative Persistence with the given SSB entry count
// (Table 3 sizes; intermediate sizes round their latency up). Non-positive
// sizes are rejected at construction rather than silently rounding to the
// smallest table latency.
func WithSSB(entries int) Option {
	if entries <= 0 {
		panic(fmt.Sprintf("core: SSB entry count must be positive, got %d", entries))
	}
	return func(c *sysConfig) {
		ensureSP(&c.opts)
		c.opts.CPU.SP.SSBEntries = entries
	}
}

// WithCheckpoints enables Speculative Persistence with the given
// checkpoint-buffer size.
func WithCheckpoints(n int) Option {
	if n <= 0 {
		panic(fmt.Sprintf("core: checkpoint count must be positive, got %d", n))
	}
	return func(c *sysConfig) {
		ensureSP(&c.opts)
		c.opts.CPU.SP.Checkpoints = n
	}
}

// WithTimeline attaches a cycle-resolved event recorder to every component
// of the machine. nil leaves recording disabled (the default).
func WithTimeline(tl *obs.Timeline) Option {
	return func(c *sysConfig) { c.tl = tl }
}

// New builds the machine a variant runs on: the Table 2 baseline refined by
// the given options, with the variant's hardware rules enforced — a
// speculative variant gets SP256 hardware unless an option sized it, and a
// non-speculative variant never carries SP hardware even if an option
// enabled it. Every component registers its metrics into the system's
// Registry at construction.
func New(v Variant, options ...Option) *System {
	c := sysConfig{opts: DefaultOptions()}
	for _, opt := range options {
		opt(&c)
	}
	if v.Speculative() {
		ensureSP(&c.opts)
	} else {
		c.opts.CPU.SP = cpu.SPConfig{}
	}
	return newSystem(c.opts, c.tl)
}
