package parallel

import (
	"errors"
	"sync"
	"testing"
)

// TestForEachStressCoverage hammers ForEach across worker/size shapes
// (including workers > n, n == 0, and n == 1) with workers feeding a
// shared accumulator. Run under -race this doubles as the data-race
// gate for the Monte-Carlo substrate: every index must be visited
// exactly once and the mutex-guarded sum must come out exact.
func TestForEachStressCoverage(t *testing.T) {
	shapes := []struct{ n, workers int }{
		{0, 4},    // empty range: no worker may fire
		{1, 8},    // single item, more workers than items
		{7, 16},   // workers > n
		{64, 3},   // uneven blocks
		{1000, 0}, // default worker count
		{1000, 1}, // sequential fast path
		{4096, 7},
	}
	for _, s := range shapes {
		visits := make([]int, s.n)
		var mu sync.Mutex
		sum := 0
		ForEach(s.n, s.workers, func(i int) {
			mu.Lock()
			visits[i]++
			sum += i
			mu.Unlock()
		})
		want := s.n * (s.n - 1) / 2
		if sum != want {
			t.Errorf("n=%d workers=%d: shared sum = %d, want %d", s.n, s.workers, sum, want)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d workers=%d: index %d visited %d times", s.n, s.workers, i, v)
			}
		}
	}
}

// TestForEachPanicValuePreserved requires the original panic value —
// not a stringified copy — to reach the caller, so recover() can
// compare sentinel errors by identity.
func TestForEachPanicValuePreserved(t *testing.T) {
	sentinel := errors.New("worker exploded")
	defer func() {
		if r := recover(); !errors.Is(asError(t, r), sentinel) {
			t.Fatalf("recovered %#v, want the original sentinel error", r)
		}
	}()
	ForEach(100, 8, func(i int) {
		if i == 37 {
			panic(sentinel)
		}
	})
	t.Fatal("panic did not propagate")
}

// TestForEachBlockPanicValuePreserved is the ForEachBlock analogue.
func TestForEachBlockPanicValuePreserved(t *testing.T) {
	sentinel := errors.New("block exploded")
	defer func() {
		if r := recover(); !errors.Is(asError(t, r), sentinel) {
			t.Fatalf("recovered %#v, want the original sentinel error", r)
		}
	}()
	ForEachBlock(100, 4, func(w, lo, hi int) {
		if w == 2 {
			panic(sentinel)
		}
	})
	t.Fatal("panic did not propagate")
}

func asError(t *testing.T, r any) error {
	t.Helper()
	err, ok := r.(error)
	if !ok {
		t.Fatalf("recovered non-error value %#v", r)
	}
	return err
}

// TestForEachAllWorkersPanic: when every worker panics concurrently,
// exactly one of the original values must surface (no lost panic, no
// mangled aggregate).
func TestForEachAllWorkersPanic(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if _, ok := r.(int); !ok {
			t.Fatalf("recovered %#v, want one of the workers' int values", r)
		}
	}()
	ForEach(64, 8, func(i int) { panic(i) })
}

// TestForEachBlockPartitionDeterministic pins the block-partition
// contract: the (worker, lo, hi) assignment is a pure function of
// (n, workers), repeated runs agree, and the blocks tile [0, n)
// exactly. Per-worker RNG-stream reproducibility rides on this.
func TestForEachBlockPartitionDeterministic(t *testing.T) {
	type block struct{ w, lo, hi int }
	collect := func(n, workers int) []block {
		blocks := make([]block, 0, workers)
		var mu sync.Mutex
		ForEachBlock(n, workers, func(w, lo, hi int) {
			mu.Lock()
			blocks = append(blocks, block{w, lo, hi})
			mu.Unlock()
		})
		return blocks
	}
	for _, shape := range []struct{ n, workers int }{{10, 3}, {1000, 7}, {5, 8}, {1, 1}} {
		a := collect(shape.n, shape.workers)
		b := collect(shape.n, shape.workers)
		if len(a) != len(b) {
			t.Fatalf("n=%d workers=%d: partition size changed between runs: %d vs %d",
				shape.n, shape.workers, len(a), len(b))
		}
		covered := make([]bool, shape.n)
		for _, blk := range a {
			if blk.lo != blk.w*shape.n/len(a) || blk.hi != (blk.w+1)*shape.n/len(a) {
				t.Errorf("n=%d workers=%d: worker %d got [%d,%d), want the w*n/W formula",
					shape.n, shape.workers, blk.w, blk.lo, blk.hi)
			}
			for i := blk.lo; i < blk.hi; i++ {
				if covered[i] {
					t.Fatalf("n=%d workers=%d: index %d covered twice", shape.n, shape.workers, i)
				}
				covered[i] = true
			}
		}
		for i, ok := range covered {
			if !ok {
				t.Fatalf("n=%d workers=%d: index %d never covered", shape.n, shape.workers, i)
			}
		}
	}
}

// TestSumBlocksMatchesSequential checks the deterministic reduction
// against a plain loop under concurrent execution. The summands are
// exact multiples of 0.5 with a small total, so every partial sum is
// exactly representable and the result is independent of blocking.
func TestSumBlocksMatchesSequential(t *testing.T) {
	f := func(i int) float64 { return float64(i%17) * 0.5 }
	n := 10000
	want := 0.0
	for i := 0; i < n; i++ {
		want += f(i)
	}
	for _, workers := range []int{1, 2, 5, 16} {
		got := sumBlocks(n, workers, f)
		if got != want { //lint:ignore floatcmp summands are exact halves, so the reduction is exact for any blocking
			t.Errorf("sumBlocks(workers=%d) = %g, want %g", workers, got, want)
		}
	}
}
