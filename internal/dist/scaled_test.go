package dist

import (
	"math"
	"testing"
)

func TestScaledMatchesTransformedLaw(t *testing.T) {
	// 2·Exponential(1) has the same law as Exponential(0.5).
	s := MustScaled(MustExponential(1), 2)
	want := MustExponential(0.5)
	for _, x := range []float64{0, 0.3, 1, 2.5, 7} {
		if got, w := s.CDF(x), want.CDF(x); math.Abs(got-w) > 1e-12 {
			t.Errorf("CDF(%g) = %g, want %g", x, got, w)
		}
		if got, w := s.PDF(x), want.PDF(x); math.Abs(got-w) > 1e-12 {
			t.Errorf("PDF(%g) = %g, want %g", x, got, w)
		}
		if got, w := s.Survival(x), want.Survival(x); math.Abs(got-w) > 1e-12 {
			t.Errorf("Survival(%g) = %g, want %g", x, got, w)
		}
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		if got, w := s.Quantile(p), want.Quantile(p); math.Abs(got-w) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", p, got, w)
		}
	}
	if s.Mean() != 2 || s.Variance() != 4 {
		t.Errorf("moments: mean %g var %g", s.Mean(), s.Variance())
	}
}

func TestScaledSupportAndCondMean(t *testing.T) {
	s := MustScaled(MustUniform(10, 20), 0.5)
	lo, hi := s.Support()
	if lo != 5 || hi != 10 {
		t.Errorf("support [%g, %g], want [5, 10]", lo, hi)
	}
	// E[0.5·X | 0.5·X > 6] = 0.5·E[X | X > 12] = 0.5·16 = 8.
	if got := CondMean(s, 6); math.Abs(got-8) > 1e-12 {
		t.Errorf("CondMean(6) = %g, want 8", got)
	}
	// Closed form agrees with quadrature.
	if got, want := s.CondMean(6), CondMeanNumeric(s, 6); math.Abs(got-want) > 1e-6 {
		t.Errorf("closed %g vs numeric %g", got, want)
	}
}

func TestScaledCollapsesNesting(t *testing.T) {
	inner := MustScaled(MustExponential(1), 2)
	outer := MustScaled(inner, 3)
	if outer.base != inner.base || outer.factor != 6 {
		t.Errorf("nesting not collapsed: %+v", outer)
	}
	if outer.Mean() != 6 {
		t.Errorf("mean = %g, want 6", outer.Mean())
	}
}

func TestScaledValidation(t *testing.T) {
	if _, err := NewScaled(nil, 2); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := NewScaled(MustExponential(1), 0); err == nil {
		t.Error("zero factor accepted")
	}
	if _, err := NewScaled(MustExponential(1), math.Inf(1)); err == nil {
		t.Error("infinite factor accepted")
	}
}

func TestScaledSecondsToHours(t *testing.T) {
	// The NeuroHPC unit conversion: VBMQA in seconds scaled by 1/3600.
	sec := MustLogNormal(7.1128, 0.2039)
	h := MustScaled(sec, 1.0/3600)
	if math.Abs(h.Mean()-sec.Mean()/3600) > 1e-9 {
		t.Errorf("hour mean %g vs %g", h.Mean(), sec.Mean()/3600)
	}
	// Scaling a LogNormal is again LogNormal with shifted μ.
	want := MustLogNormal(7.1128-math.Log(3600), 0.2039)
	for _, p := range []float64{0.05, 0.5, 0.95} {
		if math.Abs(h.Quantile(p)-want.Quantile(p)) > 1e-9 {
			t.Errorf("quantile mismatch at %g", p)
		}
	}
}

// MustScaled is NewScaled that panics on invalid parameters.
func MustScaled(base Distribution, factor float64) Scaled {
	s, err := NewScaled(base, factor)
	if err != nil {
		panic(err)
	}
	return s
}
