package online

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
)

func TestLearnerValidation(t *testing.T) {
	prior := dist.MustExponential(1)
	if _, err := NewLearner(core.CostModel{}, prior, Config{}); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := NewLearner(core.ReservationOnly, nil, Config{}); err == nil {
		t.Error("nil prior accepted")
	}
	l, err := NewLearner(core.ReservationOnly, prior, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Observe(-1); err == nil {
		t.Error("negative duration accepted")
	}
	if err := l.Observe(math.Inf(1)); err == nil {
		t.Error("infinite duration accepted")
	}
}

func TestLearnerUsesPriorThenObservations(t *testing.T) {
	prior := dist.MustExponential(1)
	l, err := NewLearner(core.ReservationOnly, prior, Config{MinObservations: 3})
	if err != nil {
		t.Fatal(err)
	}
	est, err := l.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est != dist.Distribution(prior) {
		t.Error("estimate before observations is not the prior")
	}
	for _, d := range []float64{2, 2.5, 3} {
		if err := l.Observe(d); err != nil {
			t.Fatal(err)
		}
	}
	est, err = l.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := est.(*dist.Discrete); !ok {
		t.Errorf("estimate after observations is %T, want empirical", est)
	}
	if math.Abs(est.Mean()-2.5) > 1e-12 {
		t.Errorf("empirical mean = %g, want 2.5", est.Mean())
	}
}

func TestNextSequencePlanCaching(t *testing.T) {
	prior := dist.MustLogNormal(0, 0.5)
	l, err := NewLearner(core.ReservationOnly, prior, Config{DiscN: 50})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := l.NextSequence()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := l.NextSequence()
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s1.Prefix(3)
	v2, _ := s2.Prefix(3)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("plan changed without new observations")
		}
	}
	if err := l.Observe(1); err != nil {
		t.Fatal(err)
	}
	if len(l.obs) != 1 {
		t.Errorf("observations = %d", len(l.obs))
	}
}

func TestPlanCoversBeyondObservedMax(t *testing.T) {
	// The empirical law ends at the largest observation, but the plan
	// must keep covering longer jobs (doubling tail).
	prior := dist.MustExponential(1)
	l, err := NewLearner(core.ReservationOnly, prior, Config{MinObservations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{1, 2, 3} {
		if err := l.Observe(d); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := l.NextSequence()
	if err != nil {
		t.Fatal(err)
	}
	// A job far beyond the observed max is still coverable.
	cost, _, err := core.ReservationOnly.RunCost(seq, 50)
	if err != nil {
		t.Fatalf("job beyond observed max uncovered: %v", err)
	}
	if math.IsInf(cost, 1) {
		t.Error("infinite cost beyond observed max")
	}
}

// TestLearnerConvergesToOracle: with enough observations, the learner's
// tail efficiency approaches the clairvoyant planner's.
func TestLearnerConvergesToOracle(t *testing.T) {
	truth := dist.MustLogNormal(1, 0.5)
	badPrior := dist.MustExponential(0.05) // mean 20: far too pessimistic
	for _, est := range []Estimator{Empirical, SmoothedLogNormal} {
		l, err := NewLearner(core.ReservationOnly, badPrior, Config{Estimator: est, DiscN: 120})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(l, truth, 400, 7)
		if err != nil {
			t.Fatalf("%v: %v", est, err)
		}
		if len(ev.Runs) != 400 {
			t.Fatalf("%v: %d runs", est, len(ev.Runs))
		}
		if ev.TailRatio > 1.12 {
			t.Errorf("%v: tail ratio %g, want ≤1.12 (converged)", est, ev.TailRatio)
		}
		if ev.TotalCost < ev.OracleTotal {
			// Possible on a lucky sample path, but with a bad prior the
			// learner should pay some learning cost.
			t.Logf("%v: learner beat oracle overall (%g vs %g)", est, ev.TotalCost, ev.OracleTotal)
		}
		if ev.Regret != ev.TotalCost-ev.OracleTotal {
			t.Errorf("%v: regret bookkeeping wrong", est)
		}
	}
}

// TestSmoothedBeatsEmpiricalEarly: when the truth is LogNormal, the
// parametric estimator converges at least as fast over the early jobs.
func TestSmoothedBeatsEmpiricalEarly(t *testing.T) {
	truth := dist.MustLogNormal(1, 0.5)
	prior := dist.MustExponential(0.2)
	costOver := func(est Estimator) float64 {
		l, err := NewLearner(core.ReservationOnly, prior, Config{Estimator: est, MinObservations: 3, DiscN: 100})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := Evaluate(l, truth, 60, 5)
		if err != nil {
			t.Fatal(err)
		}
		return ev.TotalCost
	}
	emp := costOver(Empirical)
	smooth := costOver(SmoothedLogNormal)
	// Allow a modest margin: the claim is "not worse", not dominance.
	if smooth > emp*1.1 {
		t.Errorf("smoothed (%g) much worse than empirical (%g) on lognormal truth", smooth, emp)
	}
}

func TestEvaluateValidation(t *testing.T) {
	prior := dist.MustExponential(1)
	l, err := NewLearner(core.ReservationOnly, prior, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(l, dist.MustExponential(1), 0, 1); err == nil {
		t.Error("zero jobs accepted")
	}
}

func TestEstimatorString(t *testing.T) {
	if Empirical.String() != "empirical" || SmoothedLogNormal.String() != "smoothed-lognormal" {
		t.Error("estimator names wrong")
	}
}

// TestWindowedLearnerTracksDrift: when the job distribution shifts
// mid-stream, a windowed learner adapts while the unwindowed one drags
// stale observations along.
func TestWindowedLearnerTracksDrift(t *testing.T) {
	m := core.ReservationOnly
	before := dist.MustLogNormal(0, 0.4)  // mean ≈ 1.08
	after := dist.MustLogNormal(2.5, 0.4) // mean ≈ 13.2: 12× longer jobs

	run := func(window int) (tailCost float64) {
		l, err := NewLearner(m, before, Config{Window: window, DiscN: 100})
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(7)
		// Phase 1: 150 jobs from the old law.
		for i := 0; i < 150; i++ {
			stepJob(t, l, dist.Sample(before, r))
		}
		// Phase 2: 150 jobs from the new law; measure the last 50.
		var cost float64
		for i := 0; i < 150; i++ {
			c := stepJob(t, l, dist.Sample(after, r))
			if i >= 100 {
				cost += c
			}
		}
		return cost
	}

	unwindowed := run(0)
	windowed := run(40)
	if !(windowed < unwindowed) {
		t.Errorf("windowed learner (%g) not better than unwindowed (%g) after drift", windowed, unwindowed)
	}
}

// TestWindowBoundsObservations: the window caps the retained history.
func TestWindowBoundsObservations(t *testing.T) {
	l, err := NewLearner(core.ReservationOnly, dist.MustExponential(1), Config{Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 25; i++ {
		if err := l.Observe(float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.obs) != 10 {
		t.Errorf("observations = %d, want 10", len(l.obs))
	}
	// The retained estimate reflects the recent values (16..25).
	est, err := l.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean() < 20 {
		t.Errorf("windowed mean = %g, want >= 20", est.Mean())
	}
	if _, err := NewLearner(core.ReservationOnly, dist.MustExponential(1), Config{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
}

// stepJob plans, runs one job of the given duration, observes it, and
// returns the cost paid.
func stepJob(t *testing.T, l *Learner, duration float64) float64 {
	t.Helper()
	seq, err := l.NextSequence()
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := l.model.RunCost(seq, duration)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Observe(duration); err != nil {
		t.Fatal(err)
	}
	return c
}
