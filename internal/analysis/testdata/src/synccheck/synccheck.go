// Package synccheck is a golden-file fixture for the synccheck
// analyzer.
package synccheck

import "sync"

func loopCapture(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink(i) // want `goroutine captures loop variable i`
		}()
	}
	wg.Wait()
}

func rangeCapture(xs []int) {
	var wg sync.WaitGroup
	for _, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink(x) // want `goroutine captures loop variable x`
		}()
	}
	wg.Wait()
}

// The shapes below are sound and must NOT be flagged.

func loopArgPassing(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink(i)
		}(i)
	}
	wg.Wait()
}

func outerCapture(xs []int, seed int) {
	var wg sync.WaitGroup
	for range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink(seed) // not a loop variable
		}()
	}
	wg.Wait()
}

func suppressed(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			//lint:ignore synccheck fixture exercises the escape hatch
			sink(i)
		}()
	}
	wg.Wait()
}

func sink(int) {}
