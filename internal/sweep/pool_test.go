package sweep

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		const n = 37
		var hits [n]atomic.Int32
		if err := Pool(workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestPoolZeroItems(t *testing.T) {
	if err := Pool(4, 0, func(int) error { t.Error("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestPoolStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Pool(2, 1000, func(i int) error {
		ran.Add(1)
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if got := ran.Load(); got >= 1000 {
		t.Errorf("pool did not stop early: %d items ran", got)
	}
}

func TestCrossOrderAndEmptyAxis(t *testing.T) {
	type cell struct{ a, b int }
	grid := []cell{{a: 7, b: 9}}
	grid = Cross(grid, []int{1, 2}, func(c *cell, v int) { c.a = v })
	grid = Cross(grid, nil, func(*cell, int) { t.Fatal("empty axis set a value") })
	grid = Cross(grid, []int{3, 4, 5}, func(c *cell, v int) { c.b = v })
	want := []cell{{1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {2, 5}}
	if len(grid) != len(want) {
		t.Fatalf("%d cells, want %d", len(grid), len(want))
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("cell %d = %+v, want %+v", i, grid[i], want[i])
		}
	}
}
