package dist

import (
	"fmt"
	"math"
)

// BoundedPareto is the BoundedPareto(L, H, α) law on [L, H]:
// f(t) = α L^α t^{-α-1} / (1 - (L/H)^α).
type BoundedPareto struct {
	l, h, alpha float64
}

// NewBoundedPareto returns a bounded Pareto distribution on [L, H] with
// tail index alpha. alpha = 1 and alpha = 2 are rejected because the
// Table-5 closed forms for the mean and variance are singular there.
func NewBoundedPareto(l, h, alpha float64) (BoundedPareto, error) {
	if !(l > 0) || !(h > l) || math.IsInf(h, 0) {
		return BoundedPareto{}, fmt.Errorf("dist: BoundedPareto needs 0 < L < H < ∞, got L=%g H=%g", l, h)
	}
	//lint:ignore floatcmp the moment closed forms are singular only at exactly alpha=1,2
	if !(alpha > 0) || math.IsInf(alpha, 0) || alpha == 1 || alpha == 2 {
		return BoundedPareto{}, fmt.Errorf("dist: BoundedPareto tail index must be positive and ≠ 1, 2, got %g", alpha)
	}
	return BoundedPareto{l: l, h: h, alpha: alpha}, nil
}

// MustBoundedPareto is NewBoundedPareto that panics on invalid
// parameters.
func MustBoundedPareto(l, h, alpha float64) BoundedPareto {
	d, err := NewBoundedPareto(l, h, alpha)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Distribution.
func (d BoundedPareto) Name() string {
	return fmt.Sprintf("BoundedPareto(L=%g,H=%g,α=%g)", d.l, d.h, d.alpha)
}

// norm returns 1 - (L/H)^α, the truncation normalizer.
func (d BoundedPareto) norm() float64 {
	return 1 - math.Pow(d.l/d.h, d.alpha)
}

// PDF implements Distribution.
func (d BoundedPareto) PDF(t float64) float64 {
	if t < d.l || t > d.h {
		return 0
	}
	return d.alpha * math.Pow(d.l, d.alpha) * math.Pow(t, -d.alpha-1) / d.norm()
}

// CDF implements Distribution.
func (d BoundedPareto) CDF(t float64) float64 {
	switch {
	case t <= d.l:
		return 0
	case t >= d.h:
		return 1
	default:
		return (1 - math.Pow(d.l/t, d.alpha)) / d.norm()
	}
}

// Survival implements Distribution.
func (d BoundedPareto) Survival(t float64) float64 {
	return clampP(1 - d.CDF(t))
}

// SurvivalPDF implements Distribution.
func (d BoundedPareto) SurvivalPDF(t float64) (sf, f float64) {
	return d.Survival(t), d.PDF(t)
}

// Quantile implements Distribution (Table 5):
// Q(x) = L / (1 - (1 - (L/H)^α) x)^{1/α}.
func (d BoundedPareto) Quantile(p float64) float64 {
	p = clampP(p)
	if p == 1 {
		return d.h
	}
	return d.l / math.Pow(1-d.norm()*p, 1/d.alpha)
}

// Mean implements Distribution (Table 5, α ≠ 1):
// α/(α-1) · (H^α L - H L^α) / (H^α - L^α).
func (d BoundedPareto) Mean() float64 {
	ha := math.Pow(d.h, d.alpha)
	la := math.Pow(d.l, d.alpha)
	return d.alpha / (d.alpha - 1) * (ha*d.l - d.h*la) / (ha - la)
}

// Variance implements Distribution (Table 5, α ≠ 1, 2).
func (d BoundedPareto) Variance() float64 {
	ha := math.Pow(d.h, d.alpha)
	la := math.Pow(d.l, d.alpha)
	m := d.Mean()
	m2 := d.alpha / (d.alpha - 2) * (ha*d.l*d.l - d.h*d.h*la) / (ha - la)
	return m2 - m*m
}

// Support implements Distribution.
func (d BoundedPareto) Support() (float64, float64) { return d.l, d.h }

// CondMean implements CondMeaner using the Appendix-B closed form:
// E[X | X > τ] = α/(α-1) · (H^{1-α} - τ^{1-α}) / (H^{-α} - τ^{-α}).
func (d BoundedPareto) CondMean(tau float64) float64 {
	if tau < d.l {
		tau = d.l
	}
	if tau >= d.h {
		return math.NaN()
	}
	num := math.Pow(d.h, 1-d.alpha) - math.Pow(tau, 1-d.alpha)
	den := math.Pow(d.h, -d.alpha) - math.Pow(tau, -d.alpha)
	return d.alpha / (d.alpha - 1) * num / den
}
