// Package quad provides numerical integration on finite and
// semi-infinite intervals. It is used throughout the library to compute
// partial moments and conditional expectations of probability
// distributions when no closed form is available, and by the test
// suites to cross-check every closed form against an independent
// numerical value.
//
// The core routine is an adaptive Simpson integrator with Richardson
// acceleration; semi-infinite intervals are mapped to (0, 1) with the
// rational substitution t = a + u/(1-u).
package quad

import (
	"errors"
	"math"
)

// DefaultTol is the default absolute/relative error target.
const DefaultTol = 1e-10

// maxDepth bounds the adaptive recursion. 2^48 subdivisions is far more
// than double precision can use, so hitting the bound means the
// integrand is too irregular for the requested tolerance.
const maxDepth = 48

// ErrDepth is returned when adaptive subdivision hits its depth limit
// before reaching the requested tolerance. The returned value is still
// the best available estimate.
var ErrDepth = errors.New("quad: max subdivision depth reached")

// Func is a scalar integrand.
type Func func(x float64) float64

// Integrate computes ∫_a^b f(x) dx with adaptive Simpson quadrature to
// the given tolerance (use 0 for DefaultTol). a may exceed b, in which
// case the sign of the result flips. Non-finite endpoints are rejected;
// use IntegrateToInf for semi-infinite domains.
func Integrate(f Func, a, b, tol float64) (float64, error) {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return math.NaN(), errors.New("quad: endpoints must be finite")
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	//lint:ignore floatcmp a zero-width interval has integral exactly 0; nearby widths integrate normally
	if a == b {
		return 0, nil
	}
	sign := 1.0
	if a > b {
		a, b = b, a
		sign = -1
	}
	fa, fb := f(a), f(b)
	m := 0.5 * (a + b)
	fm := f(m)
	whole := simpson(a, b, fa, fm, fb)
	v, err := adaptive(f, a, b, fa, fm, fb, whole, tol, maxDepth)
	return sign * v, err
}

// simpson returns the basic Simpson estimate on [a, b] given endpoint
// and midpoint samples.
func simpson(a, b, fa, fm, fb float64) float64 {
	return (b - a) / 6 * (fa + 4*fm + fb)
}

// adaptive recursively subdivides until the Richardson error estimate
// passes the tolerance.
func adaptive(f Func, a, b, fa, fm, fb, whole, tol float64, depth int) (float64, error) {
	m := 0.5 * (a + b)
	lm := 0.5 * (a + m)
	rm := 0.5 * (m + b)
	flm, frm := f(lm), f(rm)
	left := simpson(a, m, fa, flm, fm)
	right := simpson(m, b, fm, frm, fb)
	delta := left + right - whole
	//lint:ignore floatcmp m==a / m==b detects that the midpoint collapsed onto an endpoint in float64
	if math.Abs(delta) <= 15*tol || m == a || m == b {
		return left + right + delta/15, nil
	}
	if depth <= 0 {
		return left + right + delta/15, ErrDepth
	}
	// Keep the child tolerance at 0.6·tol rather than the classical
	// tol/2: the total error stays O(tol) while corner singularities
	// (e.g. √x at 0) converge within the depth budget instead of
	// chasing an exponentially shrinking local target.
	lv, lerr := adaptive(f, a, m, fa, flm, fm, left, 0.6*tol, depth-1)
	rv, rerr := adaptive(f, m, b, fm, frm, fb, right, 0.6*tol, depth-1)
	if lerr != nil {
		return lv + rv, lerr
	}
	return lv + rv, rerr
}

// IntegrateToInf computes ∫_a^∞ f(x) dx by mapping [a, ∞) onto [0, 1)
// with x = a + u/(1-u), dx = du/(1-u)². The integrand must decay fast
// enough for the transformed integrand to be integrable (true for all
// the survival-weighted moments used in this library).
func IntegrateToInf(f Func, a, tol float64) (float64, error) {
	g := func(u float64) float64 {
		// Clamp just inside the interval: the transformed integrand can
		// have a finite limit at u→1 (e.g. f ~ x^-2) that evaluates to
		// NaN at exactly u=1.
		if u > 1-1e-14 {
			u = 1 - 1e-14
		}
		om := 1 - u
		x := a + u/om
		v := f(x) / (om * om)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v
	}
	return Integrate(g, 0, 1, tol)
}
