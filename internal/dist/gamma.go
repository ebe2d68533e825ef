package dist

import (
	"fmt"
	"math"

	"repro/internal/specfun"
)

// Gamma is the Gamma(α, β) law on [0, ∞) with shape α and rate β:
// f(t) = β^α / Γ(α) · t^{α-1} e^{-βt}.
type Gamma struct {
	shape, rate float64
}

// NewGamma returns a Gamma distribution with the given shape and rate.
func NewGamma(shape, rate float64) (Gamma, error) {
	if !(shape > 0) || !(rate > 0) || math.IsInf(shape, 0) || math.IsInf(rate, 0) {
		return Gamma{}, fmt.Errorf("dist: Gamma shape and rate must be positive and finite, got α=%g β=%g", shape, rate)
	}
	return Gamma{shape: shape, rate: rate}, nil
}

// MustGamma is NewGamma that panics on invalid parameters.
func MustGamma(shape, rate float64) Gamma {
	d, err := NewGamma(shape, rate)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Distribution.
func (d Gamma) Name() string {
	return fmt.Sprintf("Gamma(α=%g,β=%g)", d.shape, d.rate)
}

// PDF implements Distribution.
func (d Gamma) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t == 0 {
		switch {
		case d.shape < 1:
			return math.Inf(1)
		case d.shape == 1:
			return d.rate
		default:
			return 0
		}
	}
	lg, _ := math.Lgamma(d.shape)
	return math.Exp(d.shape*math.Log(d.rate) + (d.shape-1)*math.Log(t) - d.rate*t - lg)
}

// CDF implements Distribution: P(α, βt).
func (d Gamma) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return specfun.GammaP(d.shape, d.rate*t)
}

// Survival implements Distribution: Q(α, βt).
func (d Gamma) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return specfun.GammaQ(d.shape, d.rate*t)
}

// SurvivalPDF implements Distribution.
func (d Gamma) SurvivalPDF(t float64) (sf, f float64) {
	return d.Survival(t), d.PDF(t)
}

// Quantile implements Distribution (Table 5):
// Q(x) = Γ^{-1}(α, (1-x)Γ(α)) / β.
func (d Gamma) Quantile(p float64) float64 {
	p = clampP(p)
	if p == 1 {
		return math.Inf(1)
	}
	return specfun.InvGammaP(d.shape, p) / d.rate
}

// Mean implements Distribution: α/β.
func (d Gamma) Mean() float64 { return d.shape / d.rate }

// Variance implements Distribution: α/β².
func (d Gamma) Variance() float64 { return d.shape / (d.rate * d.rate) }

// Support implements Distribution.
func (d Gamma) Support() (float64, float64) { return 0, math.Inf(1) }

// CondMean implements CondMeaner using the Appendix-B closed form:
// E[X | X > τ] = α/β + (βτ)^α e^{-βτ} / (Γ(α, βτ) β).
// The ratio is evaluated in log space so it stays finite deep in the
// tail where both factors underflow.
func (d Gamma) CondMean(tau float64) float64 {
	if tau <= 0 {
		return d.Mean()
	}
	x := d.rate * tau
	q := specfun.GammaQ(d.shape, x)
	if q <= 0 {
		return math.NaN()
	}
	lg, _ := math.Lgamma(d.shape)
	// (x^α e^{-x}) / Γ(α, x) = exp(α ln x - x - lgΓ(α) - ln Q(α,x)).
	ratio := math.Exp(d.shape*math.Log(x) - x - lg - math.Log(q))
	return d.shape/d.rate + ratio/d.rate
}
