package dist

import (
	"fmt"
	"math"
)

// TruncatedNormal is the Normal(μ, σ²) law truncated to [a, ∞) (lower
// one-sided truncation, as in Table 1 of the paper).
type TruncatedNormal struct {
	mu, sigma, a float64
	z            float64 // normalization Z = P(N(μ,σ²) >= a)
}

// NewTruncatedNormal returns a Normal(mu, sigma²) law truncated below
// at a.
func NewTruncatedNormal(mu, sigma, a float64) (TruncatedNormal, error) {
	if !(sigma > 0) || math.IsInf(sigma, 0) || math.IsNaN(mu) || math.IsInf(mu, 0) || math.IsNaN(a) || math.IsInf(a, 0) {
		return TruncatedNormal{}, fmt.Errorf("dist: TruncatedNormal needs finite μ, a and positive σ, got μ=%g σ=%g a=%g", mu, sigma, a)
	}
	z := 0.5 * math.Erfc((a-mu)/(sigma*math.Sqrt2))
	if z <= 0 {
		return TruncatedNormal{}, fmt.Errorf("dist: TruncatedNormal truncation point a=%g leaves no mass (μ=%g σ=%g)", a, mu, sigma)
	}
	return TruncatedNormal{mu: mu, sigma: sigma, a: a, z: z}, nil
}

// MustTruncatedNormal is NewTruncatedNormal that panics on invalid
// parameters.
func MustTruncatedNormal(mu, sigma, a float64) TruncatedNormal {
	d, err := NewTruncatedNormal(mu, sigma, a)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Distribution.
func (d TruncatedNormal) Name() string {
	return fmt.Sprintf("TruncatedNormal(μ=%g,σ=%g,a=%g)", d.mu, d.sigma, d.a)
}

// phi is the standard normal density.
func phi(x float64) float64 {
	return math.Exp(-0.5*x*x) / math.Sqrt(2*math.Pi)
}

// PDF implements Distribution.
func (d TruncatedNormal) PDF(t float64) float64 {
	if t < d.a {
		return 0
	}
	return phi((t-d.mu)/d.sigma) / (d.sigma * d.z)
}

// CDF implements Distribution.
func (d TruncatedNormal) CDF(t float64) float64 {
	if t <= d.a {
		return 0
	}
	// (Φ((t-μ)/σ) - Φ((a-μ)/σ)) / Z, written with erfc for stability.
	upper := 0.5 * math.Erfc((d.a-d.mu)/(d.sigma*math.Sqrt2)) // = Z
	rem := 0.5 * math.Erfc((t-d.mu)/(d.sigma*math.Sqrt2))     // P(N >= t)
	v := (upper - rem) / d.z
	return clampP(v)
}

// Survival implements Distribution: P(N >= t)/Z for t >= a.
func (d TruncatedNormal) Survival(t float64) float64 {
	if t <= d.a {
		return 1
	}
	return clampP(0.5 * math.Erfc((t-d.mu)/(d.sigma*math.Sqrt2)) / d.z)
}

// SurvivalPDF implements Distribution.
func (d TruncatedNormal) SurvivalPDF(t float64) (sf, f float64) {
	return d.Survival(t), d.PDF(t)
}

// Quantile implements Distribution (Table 5):
// Q(x) = μ + σ√2 erf^{-1}(z), z = x + (1-x)·erf((a-μ)/(σ√2)).
func (d TruncatedNormal) Quantile(p float64) float64 {
	p = clampP(p)
	if p == 0 {
		return d.a
	}
	if p == 1 {
		return math.Inf(1)
	}
	z := p + (1-p)*math.Erf((d.a-d.mu)/(d.sigma*math.Sqrt2))
	return d.mu + d.sigma*math.Sqrt2*math.Erfinv(z)
}

// hazardAt returns the inverse Mills ratio λ(α₀) = φ(α₀)/P(N≥α₀·σ+μ)
// for the standardized truncation point of tau.
func (d TruncatedNormal) hazardAt(tau float64) float64 {
	alpha := (tau - d.mu) / d.sigma
	z := 0.5 * math.Erfc(alpha/math.Sqrt2)
	if z <= 0 {
		return math.NaN()
	}
	return phi(alpha) / z
}

// Mean implements Distribution: μ + σ λ(α₀) with α₀ = (a-μ)/σ and λ the
// inverse Mills ratio.
func (d TruncatedNormal) Mean() float64 {
	return d.mu + d.sigma*d.hazardAt(d.a)
}

// Variance implements Distribution: σ²(1 + α₀λ(α₀) - λ(α₀)²).
//
// Note: Table 5 of the paper prints the variance with its η(a) factor
// missing the √(2/π) normalization; we implement the standard truncated
// normal variance, which the test suite verifies against quadrature.
func (d TruncatedNormal) Variance() float64 {
	alpha := (d.a - d.mu) / d.sigma
	l := d.hazardAt(d.a)
	return d.sigma * d.sigma * (1 + alpha*l - l*l)
}

// Support implements Distribution.
func (d TruncatedNormal) Support() (float64, float64) { return d.a, math.Inf(1) }

// CondMean implements CondMeaner: for a truncated normal, conditioning
// on X > τ is simply truncation at τ, so
// E[X | X > τ] = μ + σ λ((τ-μ)/σ).
func (d TruncatedNormal) CondMean(tau float64) float64 {
	if tau < d.a {
		tau = d.a
	}
	l := d.hazardAt(tau)
	if math.IsNaN(l) {
		return math.NaN()
	}
	return d.mu + d.sigma*l
}
