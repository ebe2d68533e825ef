package dist

import (
	"fmt"
	"math"
)

// Pareto is the Pareto(ν, α) law on [ν, ∞): f(t) = α ν^α / t^{α+1}.
type Pareto struct {
	scale, alpha float64
}

// NewPareto returns a Pareto distribution with scale nu (minimum value)
// and tail index alpha. The mean is finite only for alpha > 1 and the
// variance only for alpha > 2; the reservation problem requires a
// finite second moment (Theorem 2), so alpha <= 2 is rejected.
func NewPareto(scale, alpha float64) (Pareto, error) {
	if !(scale > 0) || math.IsInf(scale, 0) {
		return Pareto{}, fmt.Errorf("dist: Pareto scale must be positive and finite, got %g", scale)
	}
	if !(alpha > 2) || math.IsInf(alpha, 0) {
		return Pareto{}, fmt.Errorf("dist: Pareto tail index must exceed 2 for a finite second moment, got %g", alpha)
	}
	return Pareto{scale: scale, alpha: alpha}, nil
}

// MustPareto is NewPareto that panics on invalid parameters.
func MustPareto(scale, alpha float64) Pareto {
	d, err := NewPareto(scale, alpha)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Distribution.
func (d Pareto) Name() string {
	return fmt.Sprintf("Pareto(ν=%g,α=%g)", d.scale, d.alpha)
}

// PDF implements Distribution.
func (d Pareto) PDF(t float64) float64 {
	if t < d.scale {
		return 0
	}
	return d.alpha * math.Pow(d.scale, d.alpha) / math.Pow(t, d.alpha+1)
}

// CDF implements Distribution.
func (d Pareto) CDF(t float64) float64 {
	if t <= d.scale {
		return 0
	}
	return 1 - math.Pow(d.scale/t, d.alpha)
}

// Survival implements Distribution.
func (d Pareto) Survival(t float64) float64 {
	if t <= d.scale {
		return 1
	}
	return math.Pow(d.scale/t, d.alpha)
}

// SurvivalPDF implements Distribution.
func (d Pareto) SurvivalPDF(t float64) (sf, f float64) {
	return d.Survival(t), d.PDF(t)
}

// Quantile implements Distribution: Q(x) = ν / (1-x)^{1/α}.
func (d Pareto) Quantile(p float64) float64 {
	p = clampP(p)
	if p == 1 {
		return math.Inf(1)
	}
	return d.scale / math.Pow(1-p, 1/d.alpha)
}

// Mean implements Distribution: αν/(α-1).
func (d Pareto) Mean() float64 {
	return d.alpha * d.scale / (d.alpha - 1)
}

// Variance implements Distribution: αν² / ((α-1)²(α-2)).
func (d Pareto) Variance() float64 {
	am1 := d.alpha - 1
	return d.alpha * d.scale * d.scale / (am1 * am1 * (d.alpha - 2))
}

// Support implements Distribution.
func (d Pareto) Support() (float64, float64) { return d.scale, math.Inf(1) }

// CondMean implements CondMeaner using the Appendix-B closed form:
// E[X | X > τ] = ατ/(α-1).
func (d Pareto) CondMean(tau float64) float64 {
	if tau < d.scale {
		tau = d.scale
	}
	return d.alpha * tau / (d.alpha - 1)
}
