// Package dist implements the probability distributions used by the
// reservation library: the nine laws of Table 1 of the paper
// (Exponential, Weibull, Gamma, LogNormal, TruncatedNormal, Pareto,
// Uniform, Beta, BoundedPareto), plus discrete and empirical
// distributions used by the discretization-based dynamic programming,
// and LogNormal fitting for execution traces.
//
// Every distribution exposes the closed forms of Table 5 of the paper
// (CDF, mean, variance, quantile) and, where Appendix B provides one,
// the closed-form conditional expectation E[X | X > τ] that drives the
// MEAN-BY-MEAN heuristic. A numerical fallback via quadrature is
// available for all distributions and is used in the test suites to
// cross-check every closed form.
package dist

import (
	"math"

	"repro/internal/quad"
	"repro/internal/rng"
)

// Distribution is a continuous, nonnegative probability law for job
// execution times. Supports are [a, b] with 0 <= a < b, where b may be
// +Inf.
type Distribution interface {
	// Name returns a short human-readable identifier including
	// parameter values, e.g. "Exponential(λ=1)".
	Name() string
	// PDF returns the density f(t). It is 0 outside the support.
	PDF(t float64) float64
	// CDF returns F(t) = P(X <= t).
	CDF(t float64) float64
	// Survival returns P(X >= t) = 1 - F(t), computed in a numerically
	// stable way where the law permits.
	Survival(t float64) float64
	// Quantile returns Q(p) = inf{t : F(t) >= p} for p in [0, 1].
	Quantile(p float64) float64
	// Mean returns E[X].
	Mean() float64
	// Variance returns Var[X].
	Variance() float64
	// Support returns the bounds [lo, hi] of the support; hi may be
	// math.Inf(1).
	Support() (lo, hi float64)
}

// CondMeaner is implemented by distributions that know E[X | X > τ] in
// closed form (Appendix B / Table 6 of the paper).
type CondMeaner interface {
	// CondMean returns E[X | X > tau]. Behaviour is unspecified when
	// the survival at tau is 0.
	CondMean(tau float64) float64
}

// SecondMoment returns E[X²] = Var[X] + E[X]².
func SecondMoment(d Distribution) float64 {
	m := d.Mean()
	return d.Variance() + m*m
}

// StdDev returns the standard deviation of d.
func StdDev(d Distribution) float64 {
	return math.Sqrt(d.Variance())
}

// Median returns Q(1/2).
func Median(d Distribution) float64 {
	return d.Quantile(0.5)
}

// Sample draws one execution time from d by inverse-transform sampling.
func Sample(d Distribution, r *rng.Source) float64 {
	return d.Quantile(r.Float64Open())
}

// SampleN draws n execution times from d into a new slice.
func SampleN(d Distribution, r *rng.Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = Sample(d, r)
	}
	return out
}

// CondMean returns E[X | X > tau], using the distribution's closed form
// when available and numerical quadrature otherwise.
func CondMean(d Distribution, tau float64) float64 {
	lo, _ := d.Support()
	if tau < lo {
		tau = lo
	}
	if cm, ok := d.(CondMeaner); ok {
		v := cm.CondMean(tau)
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
	return CondMeanNumeric(d, tau)
}

// CondMeanNumeric computes E[X | X > tau] = ∫_tau^hi t f(t) dt / P(X>tau)
// by quadrature. It is exported so tests can cross-check the closed
// forms against it.
func CondMeanNumeric(d Distribution, tau float64) float64 {
	lo, hi := d.Support()
	if tau < lo {
		tau = lo
	}
	sf := d.Survival(tau)
	if sf <= 0 {
		return math.NaN()
	}
	var num float64
	var err error
	if math.IsInf(hi, 1) {
		num, err = quad.IntegrateToInf(func(t float64) float64 { return t * d.PDF(t) }, tau, 1e-12)
	} else {
		num, err = quad.Integrate(func(t float64) float64 { return t * d.PDF(t) }, tau, hi, 1e-12)
	}
	if err != nil && num == 0 {
		return math.NaN()
	}
	return num / sf
}

// clampP limits a probability argument to [0, 1]; NaN is propagated.
func clampP(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
