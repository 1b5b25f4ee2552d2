package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs fn(i) for every i in [0, n) on a bounded worker pool and
// returns the first error. Indexes are claimed atomically in order, so
// low-indexed items start first; after an error, workers finish their
// current item and stop claiming new ones (some higher indexes may never
// run). workers <= 0 means runtime.GOMAXPROCS(0). fn must be safe for
// concurrent invocation on distinct indexes.
//
// Both the sweep engine and the fault-injection campaigns run on this
// pool: any batch whose items are independent and indexed can use it.
func Pool(workers, n int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var (
		idx      atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Cross extends a grid by one axis: each cell of grid, in order, becomes
// one copy per value of axis, set into the copy by set. The first axis
// crossed in thus varies slowest. An empty axis leaves grid as it is, so
// every cell keeps the value it already has.
func Cross[C, V any](grid []C, axis []V, set func(*C, V)) []C {
	if len(axis) == 0 {
		return grid
	}
	out := make([]C, 0, len(grid)*len(axis))
	for _, c := range grid {
		for _, v := range axis {
			set(&c, v)
			out = append(out, c)
		}
	}
	return out
}
