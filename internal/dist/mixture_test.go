package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func bimodal(t *testing.T) *Mixture {
	t.Helper()
	m, err := NewMixture(
		[]Distribution{MustLogNormal(0, 0.3), MustLogNormal(2, 0.3)},
		[]float64{0.6, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMixtureMoments(t *testing.T) {
	m := bimodal(t)
	// Mean is the weighted component mean.
	want := 0.6*math.Exp(0.045) + 0.4*math.Exp(2.045)
	if math.Abs(m.Mean()-want) > 1e-12 {
		t.Errorf("mean = %g, want %g", m.Mean(), want)
	}
	// Cross-check both moments against quadrature.
	if got, want := m.Mean(), MeanNumeric(m); math.Abs(got-want) > 1e-6*want {
		t.Errorf("mean %g vs quadrature %g", got, want)
	}
	if got, want := m.Variance(), VarianceNumeric(m); math.Abs(got-want) > 1e-4*want {
		t.Errorf("variance %g vs quadrature %g", got, want)
	}
}

func TestMixturePDFCDFConsistency(t *testing.T) {
	m := bimodal(t)
	// CDF is nondecreasing; survival complements; PDF >= 0.
	prev := -1.0
	for x := 0.0; x < 20; x += 0.25 {
		f := m.CDF(x)
		if f < prev-1e-12 {
			t.Fatalf("CDF decreasing at %g", x)
		}
		prev = f
		if s := m.Survival(x); math.Abs(s+f-1) > 1e-12 {
			t.Errorf("S+F != 1 at %g", x)
		}
		if m.PDF(x) < 0 {
			t.Errorf("negative PDF at %g", x)
		}
	}
}

func TestMixtureQuantileInvertsCDF(t *testing.T) {
	m := bimodal(t)
	for _, p := range []float64{1e-5, 0.01, 0.3, 0.5, 0.6, 0.61, 0.9, 0.999} {
		x := m.Quantile(p)
		if got := m.CDF(x); math.Abs(got-p) > 1e-9 {
			t.Errorf("CDF(Q(%g)=%g) = %g", p, x, got)
		}
	}
	if m.Quantile(0) != 0 {
		t.Errorf("Q(0) = %g", m.Quantile(0))
	}
	if !math.IsInf(m.Quantile(1), 1) {
		t.Errorf("Q(1) = %g", m.Quantile(1))
	}
}

func TestMixtureCondMeanMatchesQuadrature(t *testing.T) {
	m := bimodal(t)
	for _, tau := range []float64{0, 0.5, 1, 3, 8} {
		got := m.CondMean(tau)
		want := CondMeanNumeric(m, tau)
		if math.Abs(got-want) > 1e-5*math.Max(1, want) {
			t.Errorf("CondMean(%g) = %.8g, quadrature %.8g", tau, got, want)
		}
	}
}

func TestMixtureSamplingBimodality(t *testing.T) {
	m := bimodal(t)
	r := rng.New(9)
	nearLow, nearHigh := 0, 0
	const n = 50000
	for i := 0; i < n; i++ {
		x := Sample(m, r)
		if x < 2 {
			nearLow++
		} else if x > 4 {
			nearHigh++
		}
	}
	// ~60% of mass near e^0=1, ~40% near e^2≈7.4.
	if f := float64(nearLow) / n; math.Abs(f-0.6) > 0.03 {
		t.Errorf("low-mode fraction %g, want ≈0.6", f)
	}
	if f := float64(nearHigh) / n; math.Abs(f-0.36) > 0.04 {
		t.Errorf("high-mode fraction %g, want ≈0.36", f)
	}
}

func TestMixtureWeightNormalization(t *testing.T) {
	m, err := NewMixture([]Distribution{MustExponential(1), MustExponential(2)}, []float64{2, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Weights 2:6 normalize to 1/4 and 3/4.
	for _, x := range []float64{0.1, 1, 5} {
		want := 0.25*MustExponential(1).CDF(x) + 0.75*MustExponential(2).CDF(x)
		if got := m.CDF(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("CDF(%g) = %g, want %g", x, got, want)
		}
	}
}

func TestMixtureBoundedSupport(t *testing.T) {
	m, err := NewMixture([]Distribution{MustUniform(1, 3), MustUniform(5, 9)}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.Support()
	if lo != 1 || hi != 9 {
		t.Errorf("support [%g, %g], want [1, 9]", lo, hi)
	}
	// Median sits at the boundary region between the modes.
	med := Median(m)
	if math.Abs(m.CDF(med)-0.5) > 1e-9 {
		t.Errorf("CDF(median) = %g", m.CDF(med))
	}
}

func TestMixtureValidation(t *testing.T) {
	e := MustExponential(1)
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture accepted")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{0}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewMixture([]Distribution{nil}, []float64{1}); err == nil {
		t.Error("nil component accepted")
	}
}
