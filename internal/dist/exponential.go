package dist

import (
	"fmt"
	"math"
)

// Exponential is the Exponential(λ) law on [0, ∞) with density
// f(t) = λ e^{-λt}.
type Exponential struct {
	lambda float64
}

// NewExponential returns an Exponential distribution with rate lambda.
func NewExponential(lambda float64) (Exponential, error) {
	if !(lambda > 0) || math.IsInf(lambda, 0) {
		return Exponential{}, fmt.Errorf("dist: Exponential rate must be positive and finite, got %g", lambda)
	}
	return Exponential{lambda: lambda}, nil
}

// MustExponential is NewExponential that panics on invalid parameters;
// intended for package-level tables and tests.
func MustExponential(lambda float64) Exponential {
	d, err := NewExponential(lambda)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Distribution.
func (d Exponential) Name() string {
	return fmt.Sprintf("Exponential(λ=%g)", d.lambda)
}

// PDF implements Distribution.
func (d Exponential) PDF(t float64) float64 {
	if t < 0 {
		return 0
	}
	return d.lambda * math.Exp(-d.lambda*t)
}

// CDF implements Distribution.
func (d Exponential) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return -math.Expm1(-d.lambda * t)
}

// Survival implements Distribution.
func (d Exponential) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return math.Exp(-d.lambda * t)
}

// SurvivalPDF implements Distribution with one exponential; at t = 0
// it is e^{-0} = 1, the value Survival returns there.
func (d Exponential) SurvivalPDF(t float64) (sf, f float64) {
	if t < 0 {
		return 1, 0
	}
	e := math.Exp(-d.lambda * t)
	return e, d.lambda * e
}

// Quantile implements Distribution.
func (d Exponential) Quantile(p float64) float64 {
	p = clampP(p)
	if p == 1 {
		return math.Inf(1)
	}
	return -math.Log1p(-p) / d.lambda
}

// Mean implements Distribution.
func (d Exponential) Mean() float64 { return 1 / d.lambda }

// Variance implements Distribution.
func (d Exponential) Variance() float64 { return 1 / (d.lambda * d.lambda) }

// Support implements Distribution.
func (d Exponential) Support() (float64, float64) { return 0, math.Inf(1) }

// CondMean implements CondMeaner using the memoryless property:
// E[X | X > τ] = τ + 1/λ.
func (d Exponential) CondMean(tau float64) float64 {
	if tau < 0 {
		tau = 0
	}
	return tau + 1/d.lambda
}
