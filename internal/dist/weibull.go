package dist

import (
	"fmt"
	"math"

	"repro/internal/specfun"
)

// Weibull is the Weibull(λ, κ) law on [0, ∞) with scale λ and shape κ:
// f(t) = (κ/λ)(t/λ)^{κ-1} e^{-(t/λ)^κ}.
type Weibull struct {
	scale, shape float64
}

// NewWeibull returns a Weibull distribution with the given scale and
// shape.
func NewWeibull(scale, shape float64) (Weibull, error) {
	if !(scale > 0) || !(shape > 0) || math.IsInf(scale, 0) || math.IsInf(shape, 0) {
		return Weibull{}, fmt.Errorf("dist: Weibull scale and shape must be positive and finite, got λ=%g κ=%g", scale, shape)
	}
	return Weibull{scale: scale, shape: shape}, nil
}

// MustWeibull is NewWeibull that panics on invalid parameters.
func MustWeibull(scale, shape float64) Weibull {
	d, err := NewWeibull(scale, shape)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Distribution.
func (d Weibull) Name() string {
	return fmt.Sprintf("Weibull(λ=%g,κ=%g)", d.scale, d.shape)
}

// PDF implements Distribution.
func (d Weibull) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 {
		switch {
		case d.shape < 1:
			return math.Inf(1)
		case d.shape == 1:
			return 1 / d.scale
		default:
			return 0
		}
	}
	z := t / d.scale
	return d.shape / d.scale * math.Pow(z, d.shape-1) * math.Exp(-math.Pow(z, d.shape))
}

// CDF implements Distribution.
func (d Weibull) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-math.Pow(t/d.scale, d.shape))
}

// Survival implements Distribution.
func (d Weibull) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-math.Pow(t/d.scale, d.shape))
}

// SurvivalPDF implements Distribution with (t/λ)^κ and its exponential
// computed once.
func (d Weibull) SurvivalPDF(t float64) (sf, f float64) {
	if t <= 0 {
		return 1, d.PDF(t)
	}
	z := t / d.scale
	sf = math.Exp(-math.Pow(z, d.shape))
	return sf, d.shape / d.scale * math.Pow(z, d.shape-1) * sf
}

// Quantile implements Distribution.
func (d Weibull) Quantile(p float64) float64 {
	p = clampP(p)
	if p == 1 {
		return math.Inf(1)
	}
	return d.scale * math.Pow(-math.Log1p(-p), 1/d.shape)
}

// Mean implements Distribution: λ Γ(1 + 1/κ).
func (d Weibull) Mean() float64 {
	return d.scale * math.Gamma(1+1/d.shape)
}

// Variance implements Distribution: λ²(Γ(1+2/κ) - Γ(1+1/κ)²).
func (d Weibull) Variance() float64 {
	g1 := math.Gamma(1 + 1/d.shape)
	g2 := math.Gamma(1 + 2/d.shape)
	return d.scale * d.scale * (g2 - g1*g1)
}

// Support implements Distribution.
func (d Weibull) Support() (float64, float64) { return 0, math.Inf(1) }

// CondMean implements CondMeaner using the Appendix-B closed form:
// E[X | X > τ] = λ e^{(τ/λ)^κ} Γ(1 + 1/κ, (τ/λ)^κ).
func (d Weibull) CondMean(tau float64) float64 {
	if tau <= 0 {
		return d.Mean()
	}
	x := math.Pow(tau/d.scale, d.shape)
	return d.scale * specfun.UpperIncGammaScaled(1+1/d.shape, x)
}
