package workload

import (
	"encoding/json"
	"fmt"

	"specpersist/internal/core"
)

// Job pairs one Table 1 benchmark with one run configuration: the unit of
// work an experiment sweep schedules. Two jobs with equal fingerprints are
// guaranteed to produce identical Results (Run is deterministic), which is
// what makes both in-memory result sharing and the on-disk sweep cache
// sound.
type Job struct {
	Bench  Bench
	Config RunConfig
}

// NewJob builds a job for a benchmark and variant with the suite-wide
// scale and seed, leaving the remaining knobs at their defaults.
func NewJob(b Bench, v core.Variant, scale float64, seed int64) Job {
	return Job{Bench: b, Config: RunConfig{Variant: v, Scale: scale, Seed: seed}}
}

// Run executes the job.
func (j Job) Run() (Result, error) { return Run(j.Bench, j.Config) }

// Validate reports an error for configurations Run would accept but turn
// into a degenerate experiment — today that is a scale so small the
// benchmark's measured-phase op count rounds to zero.
func (j Job) Validate() error {
	scale := j.Config.EffectiveScale()
	if int(float64(j.Bench.SimOps)*scale) < 1 {
		return fmt.Errorf("workload %s: scale %g rounds the measured phase to zero ops (SimOps %d); raise -scale to at least %g",
			j.Bench.Name, scale, j.Bench.SimOps, 1/float64(j.Bench.SimOps))
	}
	return nil
}

// Normalize resolves defaults and zeroes knobs the configuration ignores,
// so equivalent jobs compare (and fingerprint) equal: Options becomes the
// resolved machine (RunConfig.Machine), so a non-speculative variant drops
// any SP hardware and a speculative one spells SP256 out.
func (j Job) Normalize() Job {
	rc := j.Config
	rc.Scale = rc.EffectiveScale()
	rc.OpOverhead = rc.EffectiveOpOverhead()
	if rc.OpOverhead == 0 {
		rc.OpOverhead = -1 // keep "disabled" distinct from "default"
	}
	m := rc.Machine()
	rc.Options = &m
	if !rc.Variant.Transactional() {
		rc.IncrementalBT = false
	}
	if j.Bench.Name != "BT" {
		rc.IncrementalBT = false
	}
	return Job{Bench: j.Bench, Config: rc}
}

// fingerprintView is the canonical, fully-resolved form of a job that the
// fingerprint serializes. Every field that can change a Result must appear
// here.
type fingerprintView struct {
	Bench         Bench
	Variant       string
	Scale         float64
	Seed          int64
	Options       core.Options
	IncrementalBT bool
	MaxTraceOps   int
	OpOverhead    int
}

// Fingerprint returns a canonical textual identity for the job: two jobs
// with the same fingerprint run the same simulation and yield the same
// Result. The sweep engine hashes it for the content-addressed result
// cache.
func (j Job) Fingerprint() string {
	n := j.Normalize()
	v := fingerprintView{
		Bench:         n.Bench,
		Variant:       n.Config.Variant.String(),
		Scale:         n.Config.Scale,
		Seed:          n.Config.Seed,
		Options:       *n.Config.Options,
		IncrementalBT: n.Config.IncrementalBT,
		MaxTraceOps:   n.Config.MaxTraceOps,
		OpOverhead:    n.Config.OpOverhead,
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("workload: fingerprint marshal: %v", err)) // struct of plain values; cannot fail
	}
	return string(b)
}

// Label returns the short human-readable job description used by progress
// output and error messages.
func (j Job) Label() string {
	s := fmt.Sprintf("%s/%s seed=%d scale=%g", j.Bench.Name, j.Config.Variant, j.Config.Seed, j.Config.EffectiveScale())
	if sp := j.Config.Machine().CPU.SP; sp.Enabled {
		s += fmt.Sprintf(" ssb=%d ckpt=%d", sp.SSBEntries, sp.Checkpoints)
	}
	return s
}

// Runner executes a batch of jobs and returns their results in job order.
// The default implementation is SerialRunner; internal/sweep provides a
// parallel, disk-caching implementation.
type Runner interface {
	RunJobs(jobs []Job) ([]Result, error)
}

// SerialRunner runs each job on the calling goroutine, in order.
type SerialRunner struct{}

// RunJobs implements Runner.
func (SerialRunner) RunJobs(jobs []Job) ([]Result, error) {
	results := make([]Result, len(jobs))
	for i, j := range jobs {
		r, err := j.Run()
		if err != nil {
			return nil, fmt.Errorf("job %s: %w", j.Label(), err)
		}
		results[i] = r
	}
	return results, nil
}
