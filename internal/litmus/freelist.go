package litmus

import "sync"

// freeList is a stack of recycled values shared by a campaign's workers.
// Unlike a sync.Pool, the garbage collector never empties it, so a warm
// campaign stops building what it recycles; it holds at most as many
// values as were ever in use at once.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// get pops a recycled value; ok is false when the list is empty.
func (f *freeList[T]) get() (v T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.items); n > 0 {
		v, ok, f.items = f.items[n-1], true, f.items[:n-1]
	}
	return v, ok
}

// put pushes a value for a later get.
func (f *freeList[T]) put(v T) {
	f.mu.Lock()
	f.items = append(f.items, v)
	f.mu.Unlock()
}
