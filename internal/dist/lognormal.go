package dist

import (
	"fmt"
	"math"
)

// LogNormal is the LogNormal(μ, σ²) law on (0, ∞): ln X ~ N(μ, σ²).
type LogNormal struct {
	mu, sigma float64
}

// NewLogNormal returns a LogNormal distribution with log-mean mu and
// log-standard-deviation sigma.
func NewLogNormal(mu, sigma float64) (LogNormal, error) {
	if !(sigma > 0) || math.IsInf(sigma, 0) || math.IsNaN(mu) || math.IsInf(mu, 0) {
		return LogNormal{}, fmt.Errorf("dist: LogNormal needs finite μ and positive finite σ, got μ=%g σ=%g", mu, sigma)
	}
	return LogNormal{mu: mu, sigma: sigma}, nil
}

// MustLogNormal is NewLogNormal that panics on invalid parameters.
func MustLogNormal(mu, sigma float64) LogNormal {
	d, err := NewLogNormal(mu, sigma)
	if err != nil {
		panic(err)
	}
	return d
}

// LogNormalFromMoments builds the LogNormal law whose mean and standard
// deviation (in natural units) equal the given values; this is the
// re-parameterization used by the paper (footnote 4) to scale the
// NeuroHPC distribution: σ = sqrt(ln((sd/mean)²+1)), μ = ln(mean) - σ²/2.
func LogNormalFromMoments(mean, sd float64) (LogNormal, error) {
	if !(mean > 0) || !(sd > 0) {
		return LogNormal{}, fmt.Errorf("dist: LogNormalFromMoments needs positive mean and sd, got %g, %g", mean, sd)
	}
	sigma2 := math.Log(sd*sd/(mean*mean) + 1)
	sigma := math.Sqrt(sigma2)
	mu := math.Log(mean) - sigma2/2
	return NewLogNormal(mu, sigma)
}

// Mu returns the log-mean parameter μ.
func (d LogNormal) Mu() float64 { return d.mu }

// Sigma returns the log-standard-deviation parameter σ.
func (d LogNormal) Sigma() float64 { return d.sigma }

// Name implements Distribution.
func (d LogNormal) Name() string {
	return fmt.Sprintf("LogNormal(μ=%g,σ=%g)", d.mu, d.sigma)
}

// PDF implements Distribution.
func (d LogNormal) PDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	z := (math.Log(t) - d.mu) / d.sigma
	return math.Exp(-0.5*z*z) / (t * d.sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Distribution.
func (d LogNormal) CDF(t float64) float64 {
	if t <= 0 {
		return 0
	}
	return 0.5 * math.Erfc(-(math.Log(t)-d.mu)/(d.sigma*math.Sqrt2))
}

// Survival implements Distribution.
func (d LogNormal) Survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	return 0.5 * math.Erfc((math.Log(t)-d.mu)/(d.sigma*math.Sqrt2))
}

// SurvivalPDF implements Distribution with one logarithm.
func (d LogNormal) SurvivalPDF(t float64) (sf, f float64) {
	if t <= 0 {
		return 1, 0
	}
	lt := math.Log(t)
	z := (lt - d.mu) / d.sigma
	return 0.5 * math.Erfc((lt-d.mu)/(d.sigma*math.Sqrt2)),
		math.Exp(-0.5*z*z) / (t * d.sigma * math.Sqrt(2*math.Pi))
}

// Quantile implements Distribution (Table 5):
// Q(x) = exp(√2 σ erf^{-1}(2x-1) + μ).
func (d LogNormal) Quantile(p float64) float64 {
	p = clampP(p)
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	return math.Exp(math.Sqrt2*d.sigma*math.Erfinv(2*p-1) + d.mu)
}

// Mean implements Distribution: e^{μ+σ²/2}.
func (d LogNormal) Mean() float64 {
	return math.Exp(d.mu + d.sigma*d.sigma/2)
}

// Variance implements Distribution: (e^{σ²}-1) e^{2μ+σ²}.
func (d LogNormal) Variance() float64 {
	s2 := d.sigma * d.sigma
	return math.Expm1(s2) * math.Exp(2*d.mu+s2)
}

// Support implements Distribution.
func (d LogNormal) Support() (float64, float64) { return 0, math.Inf(1) }

// CondMean implements CondMeaner using the Appendix-B closed form:
// E[X | X > τ] = e^{μ+σ²/2} · erfc((ln τ - μ - σ²)/(√2σ)) / erfc((ln τ - μ)/(√2σ)).
func (d LogNormal) CondMean(tau float64) float64 {
	if tau <= 0 {
		return d.Mean()
	}
	lt := math.Log(tau)
	num := math.Erfc((lt - d.mu - d.sigma*d.sigma) / (math.Sqrt2 * d.sigma))
	den := math.Erfc((lt - d.mu) / (math.Sqrt2 * d.sigma))
	if den <= 0 {
		// Both complementary error functions have underflowed; deep in
		// the tail the conditional mean approaches τ itself.
		return math.NaN()
	}
	return d.Mean() * num / den
}
