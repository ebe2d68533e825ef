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
		est, err := estimateCost(c.m, c.d, s, 200000, 7, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.d.Name(), err)
		}
		if math.Abs(est.Mean-want) > 5*est.StdErr+1e-9 {
			t.Errorf("%s %v: MC %g ± %g vs analytic %g", c.d.Name(), c.m, est.Mean, est.StdErr, want)
		}
	}
}

// TestWorkerCountInvariance pins the Eq.-(13) estimate bit for bit
// across worker counts: per-block partial sums would add the same costs
// in a different order and move the last bits of Mean and StdErr.
func TestWorkerCountInvariance(t *testing.T) {
	laws := []dist.Distribution{
		dist.MustExponential(1),
		dist.MustUniform(10, 20),
		dist.MustLogNormal(3, 0.5),
		dist.MustWeibull(1, 0.5),
		dist.MustGamma(2, 2),
	}
	m := core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 2}
	for _, d := range laws {
		samples := Samples(d, 1000, 7)
		for _, ratio := range []float64{1.5, 2, 3} {
			mean := d.Mean()
			mk := func() *core.Sequence {
				return core.NewSequence(func(i int, _ []float64) (float64, bool) {
					return mean * math.Pow(ratio, float64(i)), true
				})
			}
			e1, err := CostOnSamples(m, mk(), samples, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 3, 8} {
				ew, err := CostOnSamples(m, mk(), samples, w)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(ew.Mean) != math.Float64bits(e1.Mean) ||
					math.Float64bits(ew.StdErr) != math.Float64bits(e1.StdErr) ||
					ew.MaxAttempts != e1.MaxAttempts {
					t.Errorf("%s ratio %g: %d workers give %+v, 1 worker %+v", d.Name(), ratio, w, ew, e1)
				}
			}
		}
	}
}

// TestLowestIndexFailureReported: whichever worker fails first in time,
// the error names the lowest failing sample.
func TestLowestIndexFailureReported(t *testing.T) {
	samples := []float64{11, 19, 12, 19.5, 13, 18, 14, 19.9}
	// One reservation at 15 covers the samples below it only.
	mk := func() *core.Sequence {
		return core.NewSequence(func(i int, _ []float64) (float64, bool) {
			return 15, i == 0
		})
	}
	_, want := CostOnSamples(core.ReservationOnly, mk(), samples, 1)
	if want == nil {
		t.Fatal("uncovered samples evaluated without error")
	}
	for _, w := range []int{2, 3, 8} {
		if _, err := CostOnSamples(core.ReservationOnly, mk(), samples, w); err == nil || err.Error() != want.Error() {
			t.Errorf("%d workers: error %v, want %v", w, err, want)
		}
	}
}

func TestInvalidSequencePropagates(t *testing.T) {
	d := dist.MustUniform(10, 20)
	s := core.SequenceFromFirstTail(core.ReservationOnly, d, 15, 0) // invalid candidate
	if _, err := estimateCost(core.ReservationOnly, d, s, 1000, 1, 0); err == nil {
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
	est, err := estimateCost(core.ReservationOnly, d, s, 5000, 3, 0)
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

// estimateCost draws n fresh samples from d (deterministically from
// seed) and evaluates the sequence on them.
func estimateCost(m core.CostModel, d dist.Distribution, s *core.Sequence, n int, seed uint64, workers int) (Estimate, error) {
	if n <= 0 {
		n = DefaultSamples
	}
	return CostOnSamples(m, s, Samples(d, n, seed), workers)
}
