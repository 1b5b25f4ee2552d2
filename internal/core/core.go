// Package core is the public facade of the specpersist simulator: it wires
// the memory controller, cache hierarchy and out-of-order core together,
// names the paper's benchmark variants, and runs instruction traces under
// them.
//
// The five variants match Figure 8 of the paper:
//
//	Base      — the original data structure, no logging, no persistence.
//	Log       — write-ahead undo logging added.
//	Log+P     — PMEM instructions (clwb/clflushopt/pcommit) added.
//	Log+P+Sf  — sfences added: the only failure-safe configuration.
//	SP        — Log+P+Sf hardware-accelerated by Speculative Persistence.
package core

import (
	"fmt"

	"specpersist/internal/cache"
	"specpersist/internal/cpu"
	"specpersist/internal/exec"
	"specpersist/internal/memctl"
	"specpersist/internal/obs"
	"specpersist/internal/trace"
)

// Variant selects a benchmark configuration from Figure 8.
type Variant int

const (
	// VariantBase runs the non-transactional structure.
	VariantBase Variant = iota
	// VariantLog adds undo logging but elides persistence instructions.
	VariantLog
	// VariantLogP adds PMEM instructions but elides fences.
	VariantLogP
	// VariantLogPSf is the complete failure-safe software.
	VariantLogPSf
	// VariantSP is VariantLogPSf running on Speculative Persistence
	// hardware.
	VariantSP

	numVariants
)

// Variants lists all variants in Figure 8 order.
func Variants() []Variant {
	return []Variant{VariantBase, VariantLog, VariantLogP, VariantLogPSf, VariantSP}
}

// String returns the paper's bar label.
func (v Variant) String() string {
	switch v {
	case VariantBase:
		return "Base"
	case VariantLog:
		return "Log"
	case VariantLogP:
		return "Log+P"
	case VariantLogPSf:
		return "Log+P+Sf"
	case VariantSP:
		return "SP"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// ParseVariant resolves a bar label back to a Variant.
func ParseVariant(s string) (Variant, error) {
	for _, v := range Variants() {
		if v.String() == s {
			return v, nil
		}
	}
	return 0, fmt.Errorf("core: unknown variant %q", s)
}

// Transactional reports whether the variant runs the undo-logging code.
func (v Variant) Transactional() bool { return v != VariantBase }

// Level maps the variant to the trace-emission level of the software.
func (v Variant) Level() exec.Level {
	switch v {
	case VariantBase, VariantLog:
		return exec.LevelLog
	case VariantLogP:
		return exec.LevelLogP
	default:
		return exec.LevelFull
	}
}

// Speculative reports whether the hardware runs Speculative Persistence.
func (v Variant) Speculative() bool { return v == VariantSP }

// Options assembles a full system configuration. The zero value is not
// valid; start from DefaultOptions.
type Options struct {
	CPU   cpu.Config
	Cache cache.Config
	Mem   memctl.Config
	// Controllers is the number of interleaved memory controllers (the
	// paper's pcommit gathers acknowledgements from all of them);
	// 0 or 1 means a single controller.
	Controllers int
}

// DefaultOptions returns the paper's Table 2 baseline system.
func DefaultOptions() Options {
	return Options{
		CPU:   cpu.DefaultConfig(),
		Cache: cache.DefaultConfig(),
		Mem:   memctl.DefaultConfig(),
	}
}

// For resolves o for a variant's hardware: a speculative variant gets
// the paper's SP256 design point unless o already enables SP, whose sizes
// are then kept, and a non-speculative variant carries no SP hardware even
// if o enables it. For is idempotent, so every machine builder resolves
// through it and equal machines compare equal.
func (o Options) For(v Variant) Options {
	if !v.Speculative() {
		o.CPU.SP = cpu.SPConfig{}
	} else if !o.CPU.SP.Enabled {
		o.CPU.SP = cpu.DefaultSPConfig()
	}
	return o
}

// System is one simulated machine instance.
type System struct {
	MC    memctl.Memory
	Cache *cache.Hierarchy
	CPU   *cpu.CPU

	reg *obs.Registry
	tl  *obs.Timeline
}

// New builds the machine o describes; resolve a variant's hardware with
// o.For(v) first. Every component registers its metrics into the system's
// Registry, and into tl when it is non-nil (nil leaves cycle-resolved
// event recording off).
func New(o Options, tl *obs.Timeline) *System {
	var mc memctl.Memory
	if o.Controllers > 1 {
		mc = memctl.NewMulti(o.Controllers, o.Mem)
	} else {
		mc = memctl.New(o.Mem)
	}
	h := cache.New(o.Cache, mc)
	c := cpu.New(o.CPU, h, mc)
	mc.SetTimeline(tl)
	c.SetTimeline(tl)
	reg := obs.NewRegistry()
	c.Register(reg)
	h.Register(reg)
	mc.Register(reg)
	return &System{MC: mc, Cache: h, CPU: c, reg: reg, tl: tl}
}

// Obs returns the system's metric registry. Every component registered its
// counters at construction; the registry is read-only thereafter.
func (s *System) Obs() *obs.Registry { return s.reg }

// Metrics snapshots every registered counter under its canonical key
// (e.g. "cpu.stall.fence_cycles", "cache.l1.misses", "mem.wpq.stalls").
func (s *System) Metrics() obs.Snapshot { return s.reg.Snapshot() }

// Timeline returns the event recorder New attached, or nil.
func (s *System) Timeline() *obs.Timeline { return s.tl }

// Run simulates a trace to completion.
func (s *System) Run(src trace.Source) cpu.Stats { return s.CPU.Run(src) }
