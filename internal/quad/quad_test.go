package quad

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %.12g, want %.12g", name, got, want)
	}
}

func TestIntegratePolynomials(t *testing.T) {
	// Simpson is exact for cubics; the adaptive version must nail these.
	v, err := Integrate(func(x float64) float64 { return x * x }, 0, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "∫x²", v, 9, 1e-12)

	v, err = Integrate(func(x float64) float64 { return x*x*x - 2*x }, -1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "∫x³-2x", v, 15.0/4-3, 1e-12)
}

func TestIntegrateTranscendental(t *testing.T) {
	v, err := Integrate(math.Sin, 0, math.Pi, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "∫sin", v, 2, 1e-10)

	v, err = Integrate(math.Exp, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "∫exp", v, math.E-1, 1e-10)

	// A mildly singular-derivative integrand: sqrt on [0, 1].
	v, err = Integrate(math.Sqrt, 0, 1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "∫sqrt", v, 2.0/3.0, 1e-9)
}

func TestIntegrateReversedAndDegenerate(t *testing.T) {
	v, err := Integrate(func(x float64) float64 { return x }, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "reversed", v, -2, 1e-12)

	v, err = Integrate(math.Exp, 1, 1, 0)
	if err != nil || v != 0 {
		t.Errorf("degenerate interval: v=%g err=%v, want 0,nil", v, err)
	}

	if _, err := Integrate(math.Exp, 0, math.Inf(1), 0); err == nil {
		t.Error("expected error for infinite endpoint on Integrate")
	}
}

func TestIntegrateToInf(t *testing.T) {
	// ∫_0^∞ e^{-x} = 1
	v, err := IntegrateToInf(func(x float64) float64 { return math.Exp(-x) }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "∫e^-x", v, 1, 1e-9)

	// ∫_0^∞ x e^{-x} = 1
	v, err = IntegrateToInf(func(x float64) float64 { return x * math.Exp(-x) }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "∫x e^-x", v, 1, 1e-9)

	// ∫_1^∞ 1/x² = 1
	v, err = IntegrateToInf(func(x float64) float64 { return 1 / (x * x) }, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "∫1/x²", v, 1, 1e-9)

	// Gaussian tail: ∫_0^∞ e^{-x²/2} = sqrt(π/2)
	v, err = IntegrateToInf(func(x float64) float64 { return math.Exp(-x * x / 2) }, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "gaussian", v, math.Sqrt(math.Pi/2), 1e-9)
}

func TestLinearityProperty(t *testing.T) {
	// ∫(c·f) = c·∫f for random scale factors and bounds.
	f := func(c, hi float64) bool {
		c = math.Mod(c, 10)
		hi = 0.5 + math.Abs(math.Mod(hi, 5))
		g := func(x float64) float64 { return math.Cos(x) + 2 }
		v1, err1 := Integrate(func(x float64) float64 { return c * g(x) }, 0, hi, 0)
		v2, err2 := Integrate(g, 0, hi, 0)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(v1-c*v2) < 1e-8*(1+math.Abs(v1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdditivityProperty(t *testing.T) {
	// ∫_a^c = ∫_a^b + ∫_b^c for a < b < c.
	f := func(x1, x2, x3 float64) bool {
		a := math.Mod(math.Abs(x1), 4)
		b := a + 0.1 + math.Mod(math.Abs(x2), 4)
		c := b + 0.1 + math.Mod(math.Abs(x3), 4)
		g := func(x float64) float64 { return math.Exp(-x) * math.Sin(3*x+1) }
		whole, e1 := Integrate(g, a, c, 0)
		left, e2 := Integrate(g, a, b, 0)
		right, e3 := Integrate(g, b, c, 0)
		if e1 != nil || e2 != nil || e3 != nil {
			return false
		}
		return math.Abs(whole-(left+right)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
