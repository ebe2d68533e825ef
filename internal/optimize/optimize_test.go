package optimize

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisect(t *testing.T) {
	x, err := bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-10 {
		t.Errorf("bisect sqrt2 = %.15g", x)
	}
	// Exact roots at the endpoints.
	x, err = bisect(func(x float64) float64 { return x }, 0, 1, 0)
	if err != nil || x != 0 {
		t.Errorf("endpoint root: x=%g err=%v", x, err)
	}
	// Non-bracketing interval.
	if _, err := bisect(func(x float64) float64 { return x*x + 1 }, -1, 1, 0); err != ErrBracket {
		t.Errorf("expected ErrBracket, got %v", err)
	}
}

func TestBrent(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"sqrt2", func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{"cos", math.Cos, 1, 2, math.Pi / 2},
		{"cubic", func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
		{"expm1", func(x float64) float64 { return math.Exp(x) - 3 }, 0, 2, math.Log(3)},
	}
	for _, c := range cases {
		x, err := Brent(c.f, c.a, c.b, 1e-14)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(x-c.want) > 1e-9 {
			t.Errorf("%s: got %.15g want %.15g", c.name, x, c.want)
		}
	}
	if _, err := Brent(func(x float64) float64 { return x*x + 1 }, -1, 1, 0); err != ErrBracket {
		t.Errorf("expected ErrBracket, got %v", err)
	}
}

func TestBrentAgreesWithBisect(t *testing.T) {
	f := func(shift float64) bool {
		s := math.Mod(shift, 5)
		g := func(x float64) float64 { return math.Tanh(x - s) }
		a, b := s-3, s+3
		xb, err1 := bisect(g, a, b, 1e-13)
		xr, err2 := Brent(g, a, b, 1e-13)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(xb-xr) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGoldenSection(t *testing.T) {
	// Quadratic with minimum at 3.
	x := GoldenSection(func(x float64) float64 { return (x - 3) * (x - 3) }, 0, 10, 1e-12)
	if math.Abs(x-3) > 1e-6 {
		t.Errorf("golden quadratic min = %g, want 3", x)
	}
	// cosh-like asymmetric bowl with minimum at ln 2.
	x = GoldenSection(func(x float64) float64 { return math.Exp(x) + 2*math.Exp(-x) }, -3, 3, 1e-12)
	if math.Abs(x-0.5*math.Log(2)) > 1e-6 {
		t.Errorf("golden exp min = %g, want %g", x, 0.5*math.Log(2))
	}
	// Reversed interval is accepted.
	x = GoldenSection(func(x float64) float64 { return x * x }, 5, -5, 1e-12)
	if math.Abs(x) > 1e-6 {
		t.Errorf("golden reversed = %g, want 0", x)
	}
}

func TestMinimizeGrid(t *testing.T) {
	x, fx := MinimizeGrid(func(x float64) float64 { return (x - 2.5) * (x - 2.5) }, 0, 10, 1000)
	if math.Abs(x-2.5) > 0.011 {
		t.Errorf("grid min x = %g, want ≈2.5", x)
	}
	if fx > 1e-3 {
		t.Errorf("grid min value = %g, want ≈0", fx)
	}

	// NaN regions (invalid candidates) are skipped.
	f := func(x float64) float64 {
		if x < 5 {
			return math.NaN()
		}
		return x
	}
	x, fx = MinimizeGrid(f, 0, 10, 100)
	if x < 5 || math.IsNaN(fx) {
		t.Errorf("grid with NaN region: x=%g fx=%g", x, fx)
	}

	// All-NaN yields NaN/Inf sentinel.
	x, fx = MinimizeGrid(func(float64) float64 { return math.NaN() }, 0, 1, 10)
	if !math.IsNaN(x) || !math.IsInf(fx, 1) {
		t.Errorf("all-NaN grid: x=%g fx=%g", x, fx)
	}
}

// bisect finds x in [a, b] with f(x) = 0 by bisection: the
// reference root finder Brent is checked against. f(a) and f(b)
// must have opposite signs (or one endpoint must be an exact root).
func bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
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
	for i := 0; i < defaultIter; i++ {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 || (b-a)/2 < tol*(1+math.Abs(m)) {
			return m, nil
		}
		if math.Signbit(fm) == math.Signbit(fa) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b), nil
}
