// Package discretize implements the truncation and discretization
// schemes of §4.2.1 of the paper, which turn a continuous execution-time
// distribution into the finite discrete distribution consumed by the
// optimal dynamic programming algorithm (Theorem 5):
//
//   - EQUAL-PROBABILITY: n support points at the i·F(b)/n quantiles,
//     each carrying probability F(b)/n;
//   - EQUAL-TIME: n equally spaced support points on [a, b], each
//     carrying the CDF increment of its cell.
//
// Distributions with unbounded support are first truncated at
// b = Q(1-ε); the resulting discrete law then has total mass
// F(b) = 1-ε.
package discretize

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// Scheme selects a discretization rule.
type Scheme int

const (
	// EqualProbability gives every discrete execution time the same
	// probability.
	EqualProbability Scheme = iota
	// EqualTime spaces the discrete execution times equally on [a, b].
	EqualTime
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case EqualProbability:
		return "Equal-probability"
	case EqualTime:
		return "Equal-time"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// DefaultEpsilon is the paper's truncation parameter ε = 1e-7.
const DefaultEpsilon = 1e-7

// DefaultSamples is the paper's sample count n = 1000.
const DefaultSamples = 1000

// Discretize truncates (if necessary) and discretizes d into n points
// using the given scheme. eps <= 0 selects DefaultEpsilon; it is only
// used for unbounded supports.
func Discretize(d dist.Distribution, n int, eps float64, scheme Scheme) (*dist.Discrete, error) {
	if n < 1 {
		return nil, fmt.Errorf("discretize: need at least 1 sample, got %d", n)
	}
	if eps <= 0 {
		eps = DefaultEpsilon
	}
	if eps >= 1 {
		return nil, fmt.Errorf("discretize: epsilon must be in (0, 1), got %g", eps)
	}
	a, b := d.Support()
	mass := 1.0
	if math.IsInf(b, 1) {
		b = d.Quantile(1 - eps)
		mass = d.CDF(b)
	}
	if !(b > a) || math.IsInf(b, 1) || math.IsNaN(b) {
		return nil, fmt.Errorf("discretize: truncated support [%g, %g] is degenerate", a, b)
	}

	vals := make([]float64, 0, n)
	probs := make([]float64, 0, n)
	switch scheme {
	case EqualProbability:
		// v_i = Q(i·F(b)/n), f_i = F(b)/n.
		f := mass / float64(n)
		for i := 1; i <= n; i++ {
			v := d.Quantile(float64(i) * mass / float64(n))
			vals = append(vals, v)
			probs = append(probs, f)
		}
	case EqualTime:
		// v_i = a + i·(b-a)/n, f_i = F(v_i) - F(v_{i-1}).
		prevF := d.CDF(a)
		for i := 1; i <= n; i++ {
			v := a + float64(i)*(b-a)/float64(n)
			f := d.CDF(v) - prevF
			prevF = d.CDF(v)
			vals = append(vals, v)
			probs = append(probs, f)
		}
	default:
		return nil, fmt.Errorf("discretize: unknown scheme %v", scheme)
	}
	vals, probs = mergeDegenerate(vals, probs)
	return dist.NewDiscrete(vals, probs)
}

// mergeDegenerate collapses repeated or non-increasing support points
// (which arise from flat quantile regions or zero-density cells) by
// accumulating their probability onto one point, and drops zero-mass
// points. The result is strictly increasing with the same total mass.
func mergeDegenerate(vals, probs []float64) ([]float64, []float64) {
	outV := vals[:0]
	outP := probs[:0]
	for i := range vals {
		if n := len(outV); n > 0 && vals[i] <= outV[n-1] {
			outP[n-1] += probs[i]
			continue
		}
		outV = append(outV, vals[i])
		outP = append(outP, probs[i])
	}
	// Drop zero-mass points (keep at least one point).
	v2 := outV[:0:len(outV)]
	p2 := outP[:0:len(outP)]
	for i := range outV {
		if outP[i] > 0 {
			v2 = append(v2, outV[i])
			p2 = append(p2, outP[i])
		}
	}
	if len(v2) == 0 {
		return outV[:1], outP[:1]
	}
	return v2, p2
}
