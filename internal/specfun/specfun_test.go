package specfun

import (
	"math"
	"testing"
	"testing/quick"
)

// approx reports whether got is within tol (relative for large values,
// absolute near zero) of want.
func approx(got, want, tol float64) bool {
	if math.IsNaN(got) != math.IsNaN(want) {
		return false
	}
	if math.IsNaN(got) {
		return true
	}
	diff := math.Abs(got - want)
	scale := math.Max(1, math.Abs(want))
	return diff <= tol*scale
}

func TestGammaPKnownValues(t *testing.T) {
	// Reference values from the identity P(1, x) = 1 - e^{-x} and
	// P(1/2, x) = erf(sqrt(x)), plus a few textbook values.
	cases := []struct {
		a, x, want float64
	}{
		{1, 0, 0},
		{1, 1, 1 - math.Exp(-1)},
		{1, 5, 1 - math.Exp(-5)},
		{0.5, 0.25, math.Erf(0.5)},
		{0.5, 1, math.Erf(1)},
		{0.5, 4, math.Erf(2)},
		{2, 1, 1 - 2*math.Exp(-1)},       // P(2,x)=1-(1+x)e^{-x}
		{2, 3, 1 - 4*math.Exp(-3)},       // (1+3)e^{-3}
		{3, 2, 1 - (1+2+2)*math.Exp(-2)}, // P(3,x)=1-(1+x+x²/2)e^{-x}
		{3, 10, 1 - (1+10+50)*math.Exp(-10)},
	}
	for _, c := range cases {
		if got := GammaP(c.a, c.x); !approx(got, c.want, 1e-12) {
			t.Errorf("GammaP(%g,%g) = %.15g, want %.15g", c.a, c.x, got, c.want)
		}
	}
}

func TestGammaPQComplement(t *testing.T) {
	for _, a := range []float64{0.1, 0.5, 1, 2, 3.7, 10, 42} {
		for _, x := range []float64{0.01, 0.3, 1, 2.5, 8, 40, 120} {
			p := GammaP(a, x)
			q := GammaQ(a, x)
			if !approx(p+q, 1, 1e-12) {
				t.Errorf("P+Q != 1 for a=%g x=%g: %g + %g", a, x, p, q)
			}
			if p < 0 || p > 1 || q < 0 || q > 1 {
				t.Errorf("out of range: P(%g,%g)=%g Q=%g", a, x, p, q)
			}
		}
	}
}

func TestGammaPEdgeCases(t *testing.T) {
	if got := GammaP(2, math.Inf(1)); got != 1 {
		t.Errorf("GammaP(2, +Inf) = %g, want 1", got)
	}
	if got := GammaQ(2, math.Inf(1)); got != 0 {
		t.Errorf("GammaQ(2, +Inf) = %g, want 0", got)
	}
	if got := GammaP(-1, 2); !math.IsNaN(got) {
		t.Errorf("GammaP(-1, 2) = %g, want NaN", got)
	}
	if got := GammaP(2, -1); !math.IsNaN(got) {
		t.Errorf("GammaP(2, -1) = %g, want NaN", got)
	}
	if got := GammaQ(3, 0); got != 1 {
		t.Errorf("GammaQ(3, 0) = %g, want 1", got)
	}
}

func TestGammaPMonotoneInX(t *testing.T) {
	f := func(a, x1, x2 float64) bool {
		a = 0.1 + math.Abs(math.Mod(a, 20))
		x1 = math.Abs(math.Mod(x1, 50))
		x2 = math.Abs(math.Mod(x2, 50))
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return GammaP(a, x1) <= GammaP(a, x2)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInvGammaPRoundTrip(t *testing.T) {
	for _, a := range []float64{0.3, 0.5, 1, 2, 2.0, 5.5, 20} {
		for _, p := range []float64{1e-8, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.9999, 1 - 1e-7} {
			x := InvGammaP(a, p)
			got := GammaP(a, x)
			if !approx(got, p, 1e-9) {
				t.Errorf("GammaP(%g, InvGammaP(%g,%g)=%g) = %g, want %g", a, a, p, x, got, p)
			}
		}
	}
}

func TestInvGammaPEdges(t *testing.T) {
	if got := InvGammaP(2, 0); got != 0 {
		t.Errorf("InvGammaP(2, 0) = %g, want 0", got)
	}
	if got := InvGammaP(2, 1); !math.IsInf(got, 1) {
		t.Errorf("InvGammaP(2, 1) = %g, want +Inf", got)
	}
	if got := InvGammaP(2, -0.5); !math.IsNaN(got) {
		t.Errorf("InvGammaP(2, -0.5) = %g, want NaN", got)
	}
	if got := InvGammaP(0, 0.5); !math.IsNaN(got) {
		t.Errorf("InvGammaP(0, 0.5) = %g, want NaN", got)
	}
}

func TestUpperIncGamma(t *testing.T) {
	// Γ(1, x) = e^{-x}; Γ(2, x) = (x+1)e^{-x}.
	for _, x := range []float64{0.1, 1, 3, 10} {
		if got := UpperIncGamma(1, x); !approx(got, math.Exp(-x), 1e-12) {
			t.Errorf("UpperIncGamma(1,%g) = %g, want %g", x, got, math.Exp(-x))
		}
		if got := UpperIncGamma(2, x); !approx(got, (x+1)*math.Exp(-x), 1e-12) {
			t.Errorf("UpperIncGamma(2,%g) = %g, want %g", x, got, (x+1)*math.Exp(-x))
		}
	}
	// Γ(a, 0) = Γ(a).
	if got := UpperIncGamma(3.5, 0); !approx(got, math.Gamma(3.5), 1e-12) {
		t.Errorf("UpperIncGamma(3.5, 0) = %g, want Γ(3.5)=%g", got, math.Gamma(3.5))
	}
}

func TestUpperIncGammaScaled(t *testing.T) {
	// e^x Γ(1, x) = 1; e^x Γ(2, x) = x+1.
	for _, x := range []float64{0.5, 2, 20, 200, 700} {
		if got := UpperIncGammaScaled(1, x); !approx(got, 1, 1e-10) {
			t.Errorf("UpperIncGammaScaled(1,%g) = %g, want 1", x, got)
		}
		if got := UpperIncGammaScaled(2, x); !approx(got, x+1, 1e-10) {
			t.Errorf("UpperIncGammaScaled(2,%g) = %g, want %g", x, got, x+1)
		}
	}
	// Large x must not overflow even though e^x alone would.
	if got := UpperIncGammaScaled(1.5, 800); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("UpperIncGammaScaled(1.5, 800) = %g, want finite", got)
	}
}

func TestLogBetaAndBeta(t *testing.T) {
	// B(1,1)=1, B(2,2)=1/6, B(2.5,1)=0.4, B(0.5,0.5)=π.
	cases := []struct{ a, b, want float64 }{
		{1, 1, 1},
		{2, 2, 1.0 / 6.0},
		{2.5, 1, 0.4},
		{0.5, 0.5, math.Pi},
		{3, 4, 1.0 / 60.0},
	}
	for _, c := range cases {
		if got := Beta(c.a, c.b); !approx(got, c.want, 1e-12) {
			t.Errorf("Beta(%g,%g) = %g, want %g", c.a, c.b, got, c.want)
		}
	}
	// Symmetry.
	if got, want := LogBeta(3.3, 7.7), LogBeta(7.7, 3.3); !approx(got, want, 1e-14) {
		t.Errorf("LogBeta not symmetric: %g vs %g", got, want)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1, 1) = x; I_x(2, 1) = x²; I_x(1, b) = 1-(1-x)^b;
	// I_x(0.5, 0.5) = (2/π) asin(sqrt(x)).
	for _, x := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		if got := RegIncBeta(1, 1, x); !approx(got, x, 1e-12) {
			t.Errorf("I_%g(1,1) = %g, want %g", x, got, x)
		}
		if got := RegIncBeta(2, 1, x); !approx(got, x*x, 1e-12) {
			t.Errorf("I_%g(2,1) = %g, want %g", x, got, x*x)
		}
		want := 1 - math.Pow(1-x, 3)
		if got := RegIncBeta(1, 3, x); !approx(got, want, 1e-12) {
			t.Errorf("I_%g(1,3) = %g, want %g", x, got, want)
		}
		want = 2 / math.Pi * math.Asin(math.Sqrt(x))
		if got := RegIncBeta(0.5, 0.5, x); !approx(got, want, 1e-12) {
			t.Errorf("I_%g(0.5,0.5) = %g, want %g", x, got, want)
		}
	}
}

func TestRegIncBetaSymmetry(t *testing.T) {
	// I_x(a, b) = 1 - I_{1-x}(b, a).
	f := func(a, b, x float64) bool {
		a = 0.2 + math.Abs(math.Mod(a, 10))
		b = 0.2 + math.Abs(math.Mod(b, 10))
		x = math.Abs(math.Mod(x, 1))
		lhs := RegIncBeta(a, b, x)
		rhs := 1 - RegIncBeta(b, a, 1-x)
		return approx(lhs, rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInvRegIncBetaRoundTrip(t *testing.T) {
	for _, ab := range [][2]float64{{1, 1}, {2, 2}, {2, 5}, {0.5, 0.5}, {0.3, 4}, {8, 1.5}} {
		a, b := ab[0], ab[1]
		for _, p := range []float64{1e-6, 0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1 - 1e-6} {
			x := InvRegIncBeta(a, b, p)
			got := RegIncBeta(a, b, x)
			if !approx(got, p, 1e-8) {
				t.Errorf("RegIncBeta(%g,%g, Inv=%g) = %g, want %g", a, b, x, got, p)
			}
		}
	}
}

func TestInvRegIncBetaEdges(t *testing.T) {
	if got := InvRegIncBeta(2, 3, 0); got != 0 {
		t.Errorf("InvRegIncBeta(2,3,0) = %g, want 0", got)
	}
	if got := InvRegIncBeta(2, 3, 1); got != 1 {
		t.Errorf("InvRegIncBeta(2,3,1) = %g, want 1", got)
	}
	if got := InvRegIncBeta(2, 3, 1.5); !math.IsNaN(got) {
		t.Errorf("InvRegIncBeta(2,3,1.5) = %g, want NaN", got)
	}
}

func TestIncBetaMatchesBetaAtOne(t *testing.T) {
	for _, ab := range [][2]float64{{1, 1}, {2, 2}, {2.5, 1.3}} {
		if got, want := IncBeta(ab[0], ab[1], 1), Beta(ab[0], ab[1]); !approx(got, want, 1e-12) {
			t.Errorf("IncBeta(%g,%g,1) = %g, want %g", ab[0], ab[1], got, want)
		}
	}
}

// TestInvRegIncBetaBisectBrackets: inputs whose answer lies beyond
// what the Newton iteration can represent reach the bisection fallback,
// which must return x with I(x) bracketing p one ulp either side.
func TestInvRegIncBetaBisectBrackets(t *testing.T) {
	for _, c := range []struct{ a, b, p float64 }{
		{0.01, 1, 1e-10},
		{0.5, 0.5, 1e-300},
		{1, 0.01, 1 - 1e-12},
	} {
		for _, r := range []struct {
			name string
			x    float64
		}{
			{"InvRegIncBeta", InvRegIncBeta(c.a, c.b, c.p)},
			{"invRegIncBetaBisect", invRegIncBetaBisect(c.a, c.b, c.p)},
		} {
			below := RegIncBeta(c.a, c.b, math.Nextafter(r.x, 0))
			above := RegIncBeta(c.a, c.b, math.Nextafter(r.x, 1))
			if !(below <= c.p && c.p <= above) {
				t.Errorf("%s(%g, %g, %g) = %g: I one ulp either side = [%g, %g], does not bracket p",
					r.name, c.a, c.b, c.p, r.x, below, above)
			}
		}
	}
}
