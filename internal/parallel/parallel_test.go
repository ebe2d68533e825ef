package parallel

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 100} {
		const n = 1000
		var hits [n]int32
		ForEach(n, workers, func(i int) {
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(0, 4, func(int) { called = true })
	ForEach(-5, 4, func(int) { called = true })
	if called {
		t.Error("ForEach called fn for empty range")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate")
		}
		if !strings.Contains(r.(string), "boom") {
			t.Errorf("panic value %v does not mention original", r)
		}
	}()
	ForEach(100, 4, func(i int) {
		if i == 37 {
			panic("boom")
		}
	})
}

func TestForEachBlockPartition(t *testing.T) {
	const n = 97
	for _, workers := range []int{1, 2, 5, 13} {
		var covered [n]int32
		ForEachBlock(n, workers, func(w, lo, hi int) {
			if lo > hi || lo < 0 || hi > n {
				t.Errorf("bad block [%d,%d)", lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}

func TestMapOrderPreserved(t *testing.T) {
	out := Map(50, 4, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestSumBlocksMatchesSerial(t *testing.T) {
	f := func(nRaw uint16, workersRaw uint8) bool {
		n := int(nRaw%2000) + 1
		workers := int(workersRaw%8) + 1
		fn := func(i int) float64 { return math.Sqrt(float64(i)) + 1 }
		want := 0.0
		for i := 0; i < n; i++ {
			want += fn(i)
		}
		got := sumBlocks(n, workers, fn)
		return math.Abs(got-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSumBlocksDeterministic(t *testing.T) {
	fn := func(i int) float64 { return 1 / (1 + float64(i)) }
	a := sumBlocks(100000, 4, fn)
	b := sumBlocks(100000, 4, fn)
	//lint:ignore floatcmp the test asserts bit-for-bit reproducibility, which is exactly an equality claim
	if a != b {
		t.Errorf("same worker count gave different sums: %v vs %v", a, b)
	}
}

func TestWorkersBounds(t *testing.T) {
	if w := Workers(0); w != 1 {
		t.Errorf("Workers(0) = %d, want 1", w)
	}
	if w := Workers(1); w != 1 {
		t.Errorf("Workers(1) = %d, want 1", w)
	}
	if w := Workers(1 << 30); w < 1 {
		t.Errorf("Workers(big) = %d", w)
	}
}

// sumBlocks computes Σ_{i=0}^{n-1} fn(i) with one partial sum per
// worker, summed deterministically in worker order so the result does
// not depend on scheduling: the per-block-slot reduction that callers
// build on ForEachBlock (the brute-force scan keeps one winner per
// block the same way).
func sumBlocks(n, workers int, fn func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	if workers <= 0 || workers > n {
		workers = Workers(n)
	}
	partial := make([]float64, workers)
	ForEachBlock(n, workers, func(w, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += fn(i)
		}
		partial[w] = s
	})
	total := 0.0
	for _, p := range partial {
		total += p
	}
	return total
}
