package dist

import (
	"fmt"
	"math"
	"sort"
)

// Discrete is a finite discrete distribution X ~ (v_i, f_i)_{i=1..n}
// with v_1 < v_2 < ... < v_n. It is the input of the dynamic
// programming algorithm of Theorem 5, and is also produced by the
// discretization schemes of §4.2.1 (in which case the probabilities may
// sum to F(b) = 1-ε rather than 1; Total reports the actual mass).
type Discrete struct {
	vals  []float64
	probs []float64
	cum   []float64 // cum[i] = Σ_{j<=i} probs[j]
	total float64
	mean  float64
	m2    float64
}

// NewDiscrete builds a discrete distribution from execution-time values
// and their probabilities. Values must be strictly increasing,
// nonnegative and finite; probabilities must be nonnegative with a
// positive total not exceeding 1 (+ small slack for rounding).
func NewDiscrete(vals, probs []float64) (*Discrete, error) {
	if len(vals) == 0 || len(vals) != len(probs) {
		return nil, fmt.Errorf("dist: Discrete needs equal-length non-empty values/probs, got %d/%d", len(vals), len(probs))
	}
	total := 0.0
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("dist: Discrete value %d is invalid: %g", i, v)
		}
		if i > 0 && v <= vals[i-1] {
			return nil, fmt.Errorf("dist: Discrete values must be strictly increasing, v[%d]=%g <= v[%d]=%g", i, v, i-1, vals[i-1])
		}
		p := probs[i]
		if math.IsNaN(p) || p < 0 {
			return nil, fmt.Errorf("dist: Discrete probability %d is invalid: %g", i, p)
		}
		total += p
	}
	if total <= 0 || total > 1+1e-9 {
		return nil, fmt.Errorf("dist: Discrete total probability %g out of (0, 1]", total)
	}
	d := &Discrete{
		vals:  append([]float64(nil), vals...),
		probs: append([]float64(nil), probs...),
		cum:   make([]float64, len(vals)),
		total: total,
	}
	c := 0.0
	for i, p := range d.probs {
		c += p
		d.cum[i] = c
		d.mean += p * d.vals[i]
		d.m2 += p * d.vals[i] * d.vals[i]
	}
	// Moments are with respect to the (possibly sub-unit) mass,
	// renormalized so Mean/Variance describe the conditional law.
	d.mean /= total
	d.m2 /= total
	return d, nil
}

// NewEmpirical builds the empirical distribution of a trace: each
// distinct sample value gets probability (multiplicity)/len(samples).
func NewEmpirical(samples []float64) (*Discrete, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("dist: empirical distribution needs at least one sample")
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var vals, probs []float64
	w := 1 / float64(len(s))
	for i := 0; i < len(s); {
		j := i
		//lint:ignore floatcmp grouping repeated atoms of a sorted sample is an exact-identity test
		for j < len(s) && s[j] == s[i] {
			j++
		}
		vals = append(vals, s[i])
		probs = append(probs, float64(j-i)*w)
		i = j
	}
	return NewDiscrete(vals, probs)
}

// Len returns the number of support points.
func (d *Discrete) Len() int { return len(d.vals) }

// Values returns the support points (caller must not mutate).
func (d *Discrete) Values() []float64 { return d.vals }

// Probs returns the probabilities (caller must not mutate).
func (d *Discrete) Probs() []float64 { return d.probs }

// Total returns the total probability mass (1 for a proper law, F(b)
// for a truncated discretization).
func (d *Discrete) Total() float64 { return d.total }

// Name implements Distribution.
func (d *Discrete) Name() string {
	return fmt.Sprintf("Discrete(n=%d)", len(d.vals))
}

// PDF implements Distribution. For a discrete law the density is a sum
// of point masses; PDF reports the mass at exactly t (0 elsewhere),
// which is what the DP and the plotting helpers need.
func (d *Discrete) PDF(t float64) float64 {
	i := sort.SearchFloat64s(d.vals, t)
	//lint:ignore floatcmp a point mass carries weight at exactly its atom; nearby t has density 0
	if i < len(d.vals) && d.vals[i] == t {
		return d.probs[i]
	}
	return 0
}

// CDF implements Distribution: Σ_{v_i <= t} f_i.
func (d *Discrete) CDF(t float64) float64 {
	// Index of the first value strictly greater than t.
	i := sort.Search(len(d.vals), func(i int) bool { return d.vals[i] > t })
	if i == 0 {
		return 0
	}
	return d.cum[i-1]
}

// Survival implements Distribution: P(X >= t). Note >= (not >): the
// reservation cost model (Eq. 4) uses P(X >= t_i), and for discrete
// laws the difference matters at the support points.
func (d *Discrete) Survival(t float64) float64 {
	// Index of the first value >= t.
	i := sort.Search(len(d.vals), func(i int) bool { return d.vals[i] >= t })
	if i == 0 {
		return d.total
	}
	return d.total - d.cum[i-1]
}

// SurvivalPDF implements Distribution.
func (d *Discrete) SurvivalPDF(t float64) (sf, f float64) {
	return d.Survival(t), d.PDF(t)
}

// Quantile implements Distribution: inf{v : F(v) >= p}. For truncated
// discretizations with total mass < 1, p above the total maps to the
// largest value.
func (d *Discrete) Quantile(p float64) float64 {
	p = clampP(p)
	i := sort.Search(len(d.cum), func(i int) bool { return d.cum[i] >= p-1e-15 })
	if i == len(d.vals) {
		return d.vals[len(d.vals)-1]
	}
	return d.vals[i]
}

// Mean implements Distribution (renormalized by the total mass).
func (d *Discrete) Mean() float64 { return d.mean }

// Variance implements Distribution (renormalized by the total mass).
func (d *Discrete) Variance() float64 { return d.m2 - d.mean*d.mean }

// Support implements Distribution.
func (d *Discrete) Support() (float64, float64) {
	return d.vals[0], d.vals[len(d.vals)-1]
}

// CondMean implements CondMeaner: Σ_{v_i > τ} f_i v_i / P(X > τ).
func (d *Discrete) CondMean(tau float64) float64 {
	var num, den float64
	for i, v := range d.vals {
		if v > tau {
			num += d.probs[i] * v
			den += d.probs[i]
		}
	}
	if den <= 0 {
		return math.NaN()
	}
	return num / den
}
