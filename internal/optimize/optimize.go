// Package optimize provides the one-dimensional root finding and
// minimization routines used by the reservation library: Brent root
// finding (quantile fallbacks, calibration) and
// golden-section minimization (refining the brute-force search for the
// optimal first reservation length, §5.2 of the paper).
package optimize

import (
	"errors"
	"math"
)

// ErrBracket is returned when the supplied interval does not bracket a
// root (f(a) and f(b) have the same sign).
var ErrBracket = errors.New("optimize: interval does not bracket a root")

// ErrNoConverge is returned when an iteration fails to reach tolerance
// within its iteration budget.
var ErrNoConverge = errors.New("optimize: iteration did not converge")

// defaultIter bounds iterative loops.
const defaultIter = 200

// Brent finds a root of f in [a, b] using Brent's method (inverse
// quadratic interpolation with bisection safeguard). f(a) and f(b) must
// bracket the root.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if math.Signbit(fa) == math.Signbit(fb) {
		return math.NaN(), ErrBracket
	}
	c, fc := a, fa
	d := b - a
	e := d
	for i := 0; i < defaultIter; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		const machEps = 2.220446049250313e-16
		tol1 := 2*machEps*math.Abs(b) + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			s := fb / fa
			var p, q float64
			//lint:ignore floatcmp Brent's method selects secant vs inverse quadratic on exact bracket identity
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e = d
				d = p / q
			} else {
				d = xm
				e = d
			}
		} else {
			d = xm
			e = d
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
		if math.Signbit(fb) != math.Signbit(fc) {
			// keep the bracket [b, c]
		} else {
			c, fc = a, fa
			d = b - a
			e = d
		}
	}
	return b, ErrNoConverge
}

// invPhi is 1/φ, the golden-section ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenSection minimizes a unimodal function f on [a, b] and returns
// the minimizing x. For non-unimodal f it converges to some local
// minimum inside the interval.
func GoldenSection(f func(float64) float64, a, b, tol float64) float64 {
	if tol <= 0 {
		tol = 1e-10
	}
	if a > b {
		a, b = b, a
	}
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < defaultIter && (b-a) > tol*(1+math.Abs(a)+math.Abs(b)); i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return 0.5 * (a + b)
}

// MinimizeGrid evaluates f at n+1 equally spaced points on [a, b] and
// returns the best point and value. It mirrors the paper's brute-force
// scan over first-reservation candidates; NaN values (invalid
// candidates) are skipped.
func MinimizeGrid(f func(float64) float64, a, b float64, n int) (x, fx float64) {
	if n < 1 {
		n = 1
	}
	x, fx = math.NaN(), math.Inf(1)
	for i := 0; i <= n; i++ {
		xi := a + (b-a)*float64(i)/float64(n)
		v := f(xi)
		if !math.IsNaN(v) && v < fx {
			x, fx = xi, v
		}
	}
	return x, fx
}
