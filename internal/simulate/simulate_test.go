package simulate

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

func TestSamplesDeterministic(t *testing.T) {
	d := dist.MustExponential(1)
	a := Samples(d, 100, 42)
	b := Samples(d, 100, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %g vs %g", i, a[i], b[i])
		}
	}
	c := Samples(d, 100, 43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds share %d/100 samples", same)
	}
}

// TestMonteCarloMatchesAnalytic: Eq. (13) must converge to Eq. (4).
func TestMonteCarloMatchesAnalytic(t *testing.T) {
	cases := []struct {
		d dist.Distribution
		m core.CostModel
	}{
		{dist.MustExponential(1), core.ReservationOnly},
		{dist.MustExponential(1), core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 2}},
		{dist.MustUniform(10, 20), core.CostModel{Alpha: 0.95, Beta: 1, Gamma: 1.05}},
		{dist.MustLogNormal(3, 0.5), core.ReservationOnly},
		{dist.MustWeibull(1, 0.5), core.ReservationOnly},
	}
	for _, c := range cases {
		mean := c.d.Mean()
		s := core.NewSequence(func(i int, _ []float64) (float64, bool) {
			return mean * math.Pow(2, float64(i)), true
		})
		want, err := core.ExpectedCost(c.m, c.d, s.Clone())
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateCost(c.m, c.d, s, 200000, 7, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.d.Name(), err)
		}
		if math.Abs(est.Mean-want) > 5*est.StdErr+1e-9 {
			t.Errorf("%s %v: MC %g ± %g vs analytic %g", c.d.Name(), c.m, est.Mean, est.StdErr, want)
		}
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	d := dist.MustLogNormal(3, 0.5)
	m := core.ReservationOnly
	mean := d.Mean()
	mk := func() *core.Sequence {
		return core.NewSequence(func(i int, _ []float64) (float64, bool) {
			return mean * math.Pow(2, float64(i)), true
		})
	}
	samples := Samples(d, 10000, 5)
	e1, err1 := CostOnSamples(m, mk(), samples, 1)
	e8, err8 := CostOnSamples(m, mk(), samples, 8)
	if err1 != nil || err8 != nil {
		t.Fatal(err1, err8)
	}
	if math.Abs(e1.Mean-e8.Mean) > 1e-9 {
		t.Errorf("worker count changed the estimate: %g vs %g", e1.Mean, e8.Mean)
	}
	if e1.MaxAttempts != e8.MaxAttempts {
		t.Errorf("max attempts differ: %d vs %d", e1.MaxAttempts, e8.MaxAttempts)
	}
}

func TestInvalidSequencePropagates(t *testing.T) {
	d := dist.MustUniform(10, 20)
	s := core.SequenceFromFirstTail(core.ReservationOnly, d, 15, 0) // invalid candidate
	if _, err := EstimateCost(core.ReservationOnly, d, s, 1000, 1, 0); err == nil {
		t.Error("invalid sequence evaluated without error")
	}
	if _, err := CostOnSamples(core.ReservationOnly, s, nil, 0); err == nil {
		t.Error("empty sample set accepted")
	}
}

func TestNormalizedAtLeastOneStochastically(t *testing.T) {
	d := dist.MustGamma(2, 2)
	m := core.CostModel{Alpha: 1, Beta: 1, Gamma: 0.5}
	mean := d.Mean()
	s := core.NewSequence(func(i int, _ []float64) (float64, bool) {
		return mean * math.Pow(2, float64(i)), true
	})
	est, err := NormalizedCostOnSamples(m, d, s, Samples(d, 50000, 11), 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean < 1 {
		t.Errorf("normalized MC cost %g < 1", est.Mean)
	}
	if est.StdErr <= 0 || est.StdErr > 0.1 {
		t.Errorf("suspicious normalized stderr %g", est.StdErr)
	}
}

func TestUniformSingleReservationExactCost(t *testing.T) {
	// For S = (b) under RESERVATIONONLY every run costs exactly b.
	d := dist.MustUniform(10, 20)
	s, err := core.NewExplicitSequence(20)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateCost(core.ReservationOnly, d, s, 5000, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if est.Mean != 20 || est.StdErr != 0 {
		t.Errorf("estimate = %g ± %g, want exactly 20 ± 0", est.Mean, est.StdErr)
	}
	if est.MaxAttempts != 1 {
		t.Errorf("max attempts = %d, want 1", est.MaxAttempts)
	}
}
