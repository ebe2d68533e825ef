package online_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/online"
)

// Example shows the adaptive loop: plan → run → observe → replan. After
// a handful of observations the learner abandons its wild prior.
func Example() {
	prior := dist.MustExponential(0.01) // "jobs take ~100 hours"
	l, _ := online.NewLearner(core.ReservationOnly, prior, online.Config{MinObservations: 3, DiscN: 50})

	// Three jobs complete in about two hours each.
	for _, took := range []float64{1.9, 2.1, 2.0} {
		_ = l.Observe(took)
	}
	seq, _ := l.NextSequence()
	first, _ := seq.At(0)
	// The optimal plan covers all observed durations in one slot of 2.1
	// hours — no more 100-hour reservations.
	fmt.Printf("first reservation after learning: %.1f h\n", first)
	// Output:
	// first reservation after learning: 2.1 h
}
