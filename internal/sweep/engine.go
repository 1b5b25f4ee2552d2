package sweep

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"specpersist/internal/workload"
)

// Engine executes job batches on a worker pool, consulting the result
// cache before simulating. The zero value runs serially with no cache and
// no progress output.
type Engine struct {
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, is consulted before and written after every
	// run.
	Cache *Cache
	// Progress, when non-nil, receives one line per completed job
	// (timing, completed/total, ETA). Point it at os.Stderr for CLIs.
	Progress io.Writer
}

// JobResult is one job's outcome plus execution metadata.
type JobResult struct {
	Job     workload.Job
	Result  workload.Result
	Cached  bool          // served from the result cache
	Elapsed time.Duration // wall time for this job (≈0 when cached)
}

func (e *Engine) workers() int {
	if e.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return e.Workers
}

// Run executes every job and returns the outcomes in job order. Result
// order, and the results themselves, are independent of the worker count:
// workload.Run is deterministic, and jobs that share a populated image
// share it read-only and each simulate their own fork of it. The
// first job error aborts the sweep (already-started jobs finish; their
// results are still cached).
func (e *Engine) Run(jobs []workload.Job) ([]JobResult, error) {
	out := make([]JobResult, len(jobs))
	prog := newProgress(e.Progress, len(jobs))
	err := Pool(e.workers(), len(jobs), func(i int) error {
		j := jobs[i]
		start := time.Now()
		if r, ok := e.Cache.Get(j); ok {
			out[i] = JobResult{Job: j, Result: r, Cached: true, Elapsed: time.Since(start)}
			prog.done(j, out[i].Elapsed, true)
			return nil
		}
		r, err := j.Run()
		if err != nil {
			return fmt.Errorf("job %s: %w", j.Label(), err)
		}
		if err := e.Cache.Put(j, r); err != nil {
			return err
		}
		out[i] = JobResult{Job: j, Result: r, Elapsed: time.Since(start)}
		prog.done(j, out[i].Elapsed, false)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunJobs implements workload.Runner, so an Engine can slot directly into
// the figures Suite as its executor.
func (e *Engine) RunJobs(jobs []workload.Job) ([]workload.Result, error) {
	jrs, err := e.Run(jobs)
	if err != nil {
		return nil, err
	}
	results := make([]workload.Result, len(jrs))
	for i, jr := range jrs {
		results[i] = jr.Result
	}
	return results, nil
}

var _ workload.Runner = (*Engine)(nil)

// progress serializes per-job completion lines with an ETA estimate.
type progress struct {
	mu    sync.Mutex
	w     io.Writer
	total int
	count int
	start time.Time
}

func newProgress(w io.Writer, total int) *progress {
	return &progress{w: w, total: total, start: time.Now()}
}

func (p *progress) done(j workload.Job, d time.Duration, cached bool) {
	if p.w == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.count++
	suffix := ""
	if cached {
		suffix = " (cached)"
	}
	eta := ""
	if p.count < p.total {
		elapsed := time.Since(p.start)
		remaining := time.Duration(float64(elapsed) / float64(p.count) * float64(p.total-p.count))
		eta = fmt.Sprintf(" eta %s", remaining.Round(100*time.Millisecond))
	}
	fmt.Fprintf(p.w, "sweep: [%d/%d] %s %s%s%s\n",
		p.count, p.total, j.Label(), d.Round(time.Millisecond), suffix, eta)
}
