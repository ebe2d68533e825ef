package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestFitExponentialRecovers(t *testing.T) {
	want := MustExponential(2.5)
	samples := SampleN(want, rng.New(3), 40000)
	got, err := FitExponential(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.lambda-2.5) > 0.05 {
		t.Errorf("fitted λ = %g, want 2.5", got.lambda)
	}
	if _, err := FitExponential([]float64{1}); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := FitExponential([]float64{1, -1}); err == nil {
		t.Error("negative sample accepted")
	}
}

func TestFitGammaRecovers(t *testing.T) {
	want := MustGamma(2, 2)
	samples := SampleN(want, rng.New(4), 60000)
	got, err := FitGamma(samples)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Mean()-1) > 0.02 {
		t.Errorf("fitted mean = %g, want 1", got.Mean())
	}
	if math.Abs(got.Variance()-0.5) > 0.03 {
		t.Errorf("fitted variance = %g, want 0.5", got.Variance())
	}
	if _, err := FitGamma([]float64{2, 2, 2}); err == nil {
		t.Error("degenerate samples accepted")
	}
}

func TestFitWeibullRecovers(t *testing.T) {
	for _, shape := range []float64{0.5, 1.0, 1.5, 3.0} {
		want := MustWeibull(2, shape)
		samples := SampleN(want, rng.New(5), 80000)
		got, err := FitWeibull(samples)
		if err != nil {
			t.Fatalf("shape %g: %v", shape, err)
		}
		// Moment matching: the fitted mean and sd match the sample's.
		m, sd := SampleMoments(samples)
		if math.Abs(got.Mean()-m) > 0.01*m {
			t.Errorf("shape %g: fitted mean %g vs sample %g", shape, got.Mean(), m)
		}
		if math.Abs(StdDev(got)-sd) > 0.02*sd {
			t.Errorf("shape %g: fitted sd %g vs sample %g", shape, StdDev(got), sd)
		}
		// And the recovered shape is close for well-behaved cases.
		if shape >= 1 {
			gotShape := weibullShape(got)
			if math.Abs(gotShape-shape) > 0.1*shape {
				t.Errorf("fitted shape %g, want %g", gotShape, shape)
			}
		}
	}
	if _, err := FitWeibull([]float64{3, 3, 3}); err == nil {
		t.Error("degenerate samples accepted")
	}
}

// weibullShape recovers the shape from the fitted law's moments (the
// fields are unexported; the moment relation is invertible).
func weibullShape(w Weibull) float64 {
	// cv² determines the shape uniquely.
	cv2 := w.Variance() / (w.Mean() * w.Mean())
	lo, hi := 0.05, 64.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		l2, _ := math.Lgamma(1 + 2/mid)
		l1, _ := math.Lgamma(1 + 1/mid)
		if math.Exp(l2-2*l1)-1 > cv2 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

func TestFitWeibullExponentialSpecialCase(t *testing.T) {
	// Exponential data (cv = 1) fits to shape ≈ 1.
	samples := SampleN(MustExponential(1), rng.New(8), 80000)
	got, err := FitWeibull(samples)
	if err != nil {
		t.Fatal(err)
	}
	if s := weibullShape(got); math.Abs(s-1) > 0.05 {
		t.Errorf("shape on exponential data = %g, want ≈1", s)
	}
}
