// Package parallel provides the small worker-pool substrate used by the
// Monte-Carlo engine and the experiment drivers: bounded-goroutine
// iteration over index ranges with deterministic work assignment and
// panic propagation. Work is split into contiguous blocks so that each
// worker can own one RNG stream and results stay reproducible whatever
// the scheduling order.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// activeWorkers counts live worker goroutines across all ForEach /
// ForEachBlock calls in the process; peakWorkers is its high-water mark
// since the last ResetPeakWorkers. The pair is the oversubscription
// gauge: nested evaluation calls are required to run with workers=1
// (inline, spawning nothing), so the peak observed during a driver run
// must never exceed the driver's own fan-out. Regression tests assert
// exactly that.
var (
	activeWorkers atomic.Int64
	peakWorkers   atomic.Int64
)

// noteWorkerStart runs once per spawned worker goroutine; the CAS loop
// keeps it lock- and allocation-free.
//
//repro:hotpath
func noteWorkerStart() {
	a := activeWorkers.Add(1)
	for {
		p := peakWorkers.Load()
		if a <= p || peakWorkers.CompareAndSwap(p, a) {
			return
		}
	}
}

//repro:hotpath
func noteWorkerExit() {
	activeWorkers.Add(-1)
}

// ActiveWorkers returns the number of currently live worker goroutines.
func ActiveWorkers() int { return int(activeWorkers.Load()) }

// PeakWorkers returns the maximum number of simultaneously live worker
// goroutines observed since the last ResetPeakWorkers (or process
// start). Inline execution (workers <= 1) spawns no goroutines and is
// not counted.
func PeakWorkers() int { return int(peakWorkers.Load()) }

// ResetPeakWorkers rebases the high-water mark to the current live
// count, so a test can bracket one driver call.
//
//lint:ignore unusedexport test hook that rebases process-wide state: the peak-worker gauge spans every package's drivers and no other call can reset it
func ResetPeakWorkers() { peakWorkers.Store(activeWorkers.Load()) }

// Workers returns the default worker count: GOMAXPROCS capped at n (no
// point spawning more workers than items).
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 selects Workers(n)). Iterations are distributed in
// contiguous blocks: worker w handles [w*n/W, (w+1)*n/W). A panic in
// any iteration is re-raised on the caller's goroutine, with its
// original value, after all workers stop; when several workers panic,
// the first value recovered wins.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 || workers > n {
		workers = Workers(n)
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(lo, hi int) {
			noteWorkerStart()
			defer wg.Done()
			defer noteWorkerExit()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
	if panicked != nil {
		// Re-raise the original value: wrapping it in a string would
		// break callers that recover and inspect sentinel errors.
		panic(panicked)
	}
}

// ForEachBlock runs fn(worker, lo, hi) once per worker with the block
// boundaries that ForEach would use. It is the building block for
// reductions where each worker accumulates into private state (e.g. one
// RNG stream and one partial sum per worker).
func ForEachBlock(n, workers int, fn func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 || workers > n {
		workers = Workers(n)
	}
	if workers == 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		wg.Add(1)
		go func(w, lo, hi int) {
			noteWorkerStart()
			defer wg.Done()
			defer noteWorkerExit()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
