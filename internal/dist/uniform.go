package dist

import (
	"fmt"
	"math"
)

// Uniform is the Uniform(a, b) law on [a, b]: f(t) = 1/(b-a).
type Uniform struct {
	a, b float64
}

// NewUniform returns a Uniform distribution on [a, b] with 0 <= a < b.
func NewUniform(a, b float64) (Uniform, error) {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return Uniform{}, fmt.Errorf("dist: Uniform bounds must be finite, got [%g, %g]", a, b)
	}
	if a < 0 || a >= b {
		return Uniform{}, fmt.Errorf("dist: Uniform needs 0 <= a < b, got [%g, %g]", a, b)
	}
	return Uniform{a: a, b: b}, nil
}

// MustUniform is NewUniform that panics on invalid parameters.
func MustUniform(a, b float64) Uniform {
	d, err := NewUniform(a, b)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Distribution.
func (d Uniform) Name() string {
	return fmt.Sprintf("Uniform(a=%g,b=%g)", d.a, d.b)
}

// PDF implements Distribution.
func (d Uniform) PDF(t float64) float64 {
	if !(t >= d.a && t <= d.b) { // also rejects NaN
		return 0
	}
	return 1 / (d.b - d.a)
}

// CDF implements Distribution.
func (d Uniform) CDF(t float64) float64 {
	switch {
	case t <= d.a:
		return 0
	case t >= d.b:
		return 1
	default:
		return (t - d.a) / (d.b - d.a)
	}
}

// Survival implements Distribution.
func (d Uniform) Survival(t float64) float64 {
	switch {
	case t <= d.a:
		return 1
	case t >= d.b:
		return 0
	default:
		return (d.b - t) / (d.b - d.a)
	}
}

// SurvivalPDF implements Distribution.
func (d Uniform) SurvivalPDF(t float64) (sf, f float64) {
	return d.Survival(t), d.PDF(t)
}

// Quantile implements Distribution: Q(x) = (1-x)a + xb.
func (d Uniform) Quantile(p float64) float64 {
	p = clampP(p)
	return (1-p)*d.a + p*d.b
}

// Mean implements Distribution.
func (d Uniform) Mean() float64 { return 0.5 * (d.a + d.b) }

// Variance implements Distribution.
func (d Uniform) Variance() float64 {
	w := d.b - d.a
	return w * w / 12
}

// Support implements Distribution.
func (d Uniform) Support() (float64, float64) { return d.a, d.b }

// CondMean implements CondMeaner: E[X | X > τ] = (τ + b)/2.
func (d Uniform) CondMean(tau float64) float64 {
	if tau < d.a {
		tau = d.a
	}
	if tau >= d.b {
		return math.NaN()
	}
	return 0.5 * (tau + d.b)
}
