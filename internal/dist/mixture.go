package dist

import (
	"fmt"
	"math"
)

// Mixture is a finite mixture Σ w_i · D_i of execution-time laws. Job
// populations are frequently multi-modal (e.g. a pipeline whose inputs
// split into small and large cases); a mixture models them without
// leaving the framework — every reservation algorithm in this library
// works on it unchanged.
type Mixture struct {
	components []Distribution
	weights    []float64
	lo, hi     float64
	mean, m2   float64
}

// NewMixture builds the mixture of the given components with the given
// positive weights (normalized to sum 1).
func NewMixture(components []Distribution, weights []float64) (*Mixture, error) {
	if len(components) == 0 || len(components) != len(weights) {
		return nil, fmt.Errorf("dist: Mixture needs equal-length non-empty components/weights, got %d/%d", len(components), len(weights))
	}
	total := 0.0
	for i, w := range weights {
		if components[i] == nil {
			return nil, fmt.Errorf("dist: Mixture component %d is nil", i)
		}
		if !(w > 0) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("dist: Mixture weight %d must be positive and finite, got %g", i, w)
		}
		total += w
	}
	m := &Mixture{
		components: append([]Distribution(nil), components...),
		weights:    make([]float64, len(weights)),
		lo:         math.Inf(1),
		hi:         math.Inf(-1),
	}
	for i, w := range weights {
		m.weights[i] = w / total
		lo, hi := components[i].Support()
		m.lo = math.Min(m.lo, lo)
		m.hi = math.Max(m.hi, hi)
		m.mean += m.weights[i] * components[i].Mean()
		m.m2 += m.weights[i] * SecondMoment(components[i])
	}
	return m, nil
}

// Name implements Distribution.
func (m *Mixture) Name() string {
	s := "Mixture("
	for i, c := range m.components {
		if i > 0 {
			s += " + "
		}
		s += fmt.Sprintf("%.3g·%s", m.weights[i], c.Name())
	}
	return s + ")"
}

// PDF implements Distribution.
func (m *Mixture) PDF(t float64) float64 {
	var v float64
	for i, c := range m.components {
		v += m.weights[i] * c.PDF(t)
	}
	return v
}

// CDF implements Distribution.
func (m *Mixture) CDF(t float64) float64 {
	var v float64
	for i, c := range m.components {
		v += m.weights[i] * c.CDF(t)
	}
	return v
}

// Survival implements Distribution.
func (m *Mixture) Survival(t float64) float64 {
	var v float64
	for i, c := range m.components {
		v += m.weights[i] * c.Survival(t)
	}
	return v
}

// SurvivalPDF implements Distribution.
func (m *Mixture) SurvivalPDF(t float64) (sf, f float64) {
	return m.Survival(t), m.PDF(t)
}

// Quantile implements Distribution by monotone bisection on the mixture
// CDF (there is no closed form for general mixtures).
func (m *Mixture) Quantile(p float64) float64 {
	p = clampP(p)
	if p == 0 {
		return m.lo
	}
	if p == 1 {
		return m.hi
	}
	// Bracket using the component quantiles: the mixture quantile lies
	// between the min and max of the component quantiles at p.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range m.components {
		q := c.Quantile(p)
		lo = math.Min(lo, q)
		hi = math.Max(hi, q)
	}
	if hi <= lo {
		return lo // all components agree: bracket is a single point
	}
	if math.IsInf(hi, 1) {
		// Expand an upper bracket geometrically.
		hi = math.Max(1, 2*lo)
		for m.CDF(hi) < p && !math.IsInf(hi, 1) {
			hi *= 2
		}
	}
	// Bisection (CDF is continuous and nondecreasing).
	for i := 0; i < 200 && hi-lo > 1e-13*(1+math.Abs(hi)); i++ {
		mid := 0.5 * (lo + hi)
		if m.CDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi)
}

// Mean implements Distribution.
func (m *Mixture) Mean() float64 { return m.mean }

// Variance implements Distribution.
func (m *Mixture) Variance() float64 { return m.m2 - m.mean*m.mean }

// Support implements Distribution.
func (m *Mixture) Support() (float64, float64) { return m.lo, m.hi }

// CondMean implements CondMeaner by mixing the component conditional
// means with the posterior weights w_i·S_i(τ)/S(τ).
func (m *Mixture) CondMean(tau float64) float64 {
	den := m.Survival(tau)
	if den <= 0 {
		return math.NaN()
	}
	var num float64
	for i, c := range m.components {
		si := c.Survival(tau)
		if si <= 0 {
			continue
		}
		cm := CondMean(c, tau)
		if math.IsNaN(cm) {
			return math.NaN()
		}
		num += m.weights[i] * si * cm
	}
	return num / den
}
