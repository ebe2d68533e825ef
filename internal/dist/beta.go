package dist

import (
	"fmt"
	"math"

	"repro/internal/specfun"
)

// BetaDist is the Beta(α, β) law on [0, 1]:
// f(t) = t^{α-1}(1-t)^{β-1} / B(α, β).
type BetaDist struct {
	alpha, beta float64
}

// NewBeta returns a Beta distribution with the given shape parameters.
func NewBeta(alpha, beta float64) (BetaDist, error) {
	if !(alpha > 0) || !(beta > 0) || math.IsInf(alpha, 0) || math.IsInf(beta, 0) {
		return BetaDist{}, fmt.Errorf("dist: Beta shapes must be positive and finite, got α=%g β=%g", alpha, beta)
	}
	return BetaDist{alpha: alpha, beta: beta}, nil
}

// MustBeta is NewBeta that panics on invalid parameters.
func MustBeta(alpha, beta float64) BetaDist {
	d, err := NewBeta(alpha, beta)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Distribution.
func (d BetaDist) Name() string {
	return fmt.Sprintf("Beta(α=%g,β=%g)", d.alpha, d.beta)
}

// PDF implements Distribution.
func (d BetaDist) PDF(t float64) float64 {
	if t < 0 || t > 1 {
		return 0
	}
	if t == 0 {
		switch {
		case d.alpha < 1:
			return math.Inf(1)
		case d.alpha == 1:
			return d.beta
		default:
			return 0
		}
	}
	if t == 1 {
		switch {
		case d.beta < 1:
			return math.Inf(1)
		case d.beta == 1:
			return d.alpha
		default:
			return 0
		}
	}
	return math.Exp((d.alpha-1)*math.Log(t) + (d.beta-1)*math.Log(1-t) - specfun.LogBeta(d.alpha, d.beta))
}

// CDF implements Distribution: I_t(α, β).
func (d BetaDist) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	if t >= 1 {
		return 1
	}
	return specfun.RegIncBeta(d.alpha, d.beta, t)
}

// Survival implements Distribution, using the symmetry
// 1 - I_t(α, β) = I_{1-t}(β, α) for tail stability.
func (d BetaDist) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	if t >= 1 {
		return 0
	}
	return specfun.RegIncBeta(d.beta, d.alpha, 1-t)
}

// SurvivalPDF implements Distribution.
func (d BetaDist) SurvivalPDF(t float64) (sf, f float64) {
	return d.Survival(t), d.PDF(t)
}

// Quantile implements Distribution: Q(x) = I^{-1}_x(α, β).
func (d BetaDist) Quantile(p float64) float64 {
	p = clampP(p)
	return specfun.InvRegIncBeta(d.alpha, d.beta, p)
}

// Mean implements Distribution: α/(α+β).
func (d BetaDist) Mean() float64 { return d.alpha / (d.alpha + d.beta) }

// Variance implements Distribution: αβ / ((α+β)²(α+β+1)).
func (d BetaDist) Variance() float64 {
	s := d.alpha + d.beta
	return d.alpha * d.beta / (s * s * (s + 1))
}

// Support implements Distribution.
func (d BetaDist) Support() (float64, float64) { return 0, 1 }

// CondMean implements CondMeaner using the Appendix-B closed form:
// E[X | X > τ] = (B(α+1,β) - B(τ; α+1,β)) / (B(α,β) - B(τ; α,β)).
func (d BetaDist) CondMean(tau float64) float64 {
	if tau <= 0 {
		return d.Mean()
	}
	if tau >= 1 {
		return math.NaN()
	}
	num := specfun.IncBeta(d.alpha+1, d.beta, 1) - specfun.IncBeta(d.alpha+1, d.beta, tau)
	den := specfun.IncBeta(d.alpha, d.beta, 1) - specfun.IncBeta(d.alpha, d.beta, tau)
	if den <= 0 {
		return math.NaN()
	}
	return num / den
}
