// Package specfun implements the special functions needed by the
// probability distributions of the reservation library: regularized
// incomplete gamma functions and their inverses, the (regularized and
// unregularized) incomplete beta function and its inverse, and a few
// stable helpers built on top of the math package's erf/lgamma.
//
// The implementations follow the classical series / continued-fraction
// split (Numerical Recipes style): each function switches between a
// power series and a Lentz continued fraction depending on the argument
// region, and the inverses combine a Halley/Newton iteration with a
// guarded bisection fallback so they converge for every valid input.
package specfun

import "math"

const (
	// eps is the relative accuracy target for series and continued
	// fractions. Roughly float64 machine epsilon.
	eps = 2.22e-16
	// fpmin is a number near the smallest representable normalized
	// float64, used to keep Lentz's algorithm away from zero divisions.
	fpmin = math.SmallestNonzeroFloat64 / eps
	// maxIter bounds all iterative loops.
	maxIter = 500
)

// GammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x) / Γ(a) for a > 0, x >= 0.
func GammaP(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if math.IsInf(x, 1) {
		return 1
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQCF(a, x)
}

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = Γ(a, x) / Γ(a) = 1 - P(a, x) for a > 0, x >= 0.
func GammaQ(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if math.IsInf(x, 1) {
		return 0
	}
	if x < a+1 {
		return 1 - gammaPSeries(a, x)
	}
	return gammaQCF(a, x)
}

// UpperIncGamma returns the unregularized upper incomplete gamma
// function Γ(a, x) = ∫_x^∞ t^{a-1} e^{-t} dt.
func UpperIncGamma(a, x float64) float64 {
	q := GammaQ(a, x)
	lg, _ := math.Lgamma(a)
	return q * math.Exp(lg)
}

// UpperIncGammaScaled returns e^x · Γ(a, x), which stays representable
// for large x where Γ(a, x) alone underflows and e^x alone overflows.
// It is the quantity needed by the MEAN-BY-MEAN closed form for the
// Weibull distribution (Appendix B of the paper).
func UpperIncGammaScaled(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		lg, _ := math.Lgamma(a)
		return math.Exp(lg)
	}
	if x < a+1 {
		// Small-x region: compute via the regularized form directly;
		// neither factor is extreme here.
		return math.Exp(x) * UpperIncGamma(a, x)
	}
	// Γ(a, x) = e^{-x} x^a · CF(a, x), hence e^x Γ(a, x) = x^a CF(a, x).
	// Work in logs to dodge overflow of x^a for large x.
	cf := gammaCFValue(a, x)
	return math.Exp(a*math.Log(x) + math.Log(cf))
}

// gammaPSeries evaluates P(a, x) by its power series, valid for x < a+1.
func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1.0 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQCF evaluates Q(a, x) by the Lentz continued fraction, valid for
// x >= a+1.
func gammaQCF(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * gammaCFValue(a, x)
}

// gammaCFValue evaluates the continued fraction CF with
// Γ(a, x) = e^{-x} x^a · CF(a, x), for x >= a+1.
func gammaCFValue(a, x float64) float64 {
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// InvGammaP returns x such that P(a, x) = p, for a > 0 and p in [0, 1).
// It uses the Halley iteration from Numerical Recipes (3rd ed.) with a
// bisection guard.
func InvGammaP(a, p float64) float64 {
	if a <= 0 || p < 0 || p > 1 || math.IsNaN(a) || math.IsNaN(p) {
		return math.NaN()
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return math.Inf(1)
	}
	lg, _ := math.Lgamma(a)
	a1 := a - 1
	var gln1, afac float64
	if a > 1 {
		gln1 = math.Log(a1)
		afac = math.Exp(a1*(gln1-1) - lg)
	}

	// Initial guess.
	var x float64
	if a > 1 {
		pp := p
		if p >= 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		x = (2.30753+t*0.27061)/(1+t*(0.99229+t*0.04481)) - t
		if p < 0.5 {
			x = -x
		}
		x = math.Max(1e-3, a*math.Pow(1-1/(9*a)-x/(3*math.Sqrt(a)), 3))
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}

	for j := 0; j < 24; j++ {
		if x <= 0 {
			return 0
		}
		err := GammaP(a, x) - p
		var t float64
		if a > 1 {
			t = afac * math.Exp(-(x-a1)+a1*(math.Log(x)-gln1))
		} else {
			t = math.Exp(-x + a1*math.Log(x) - lg)
		}
		if t == 0 {
			break
		}
		u := err / t
		// Halley step.
		t = u / (1 - 0.5*math.Min(1, u*(a1/x-1)))
		x -= t
		if x <= 0 {
			x = 0.5 * (x + t)
		}
		if math.Abs(t) < eps*x {
			break
		}
	}
	return x
}

// LogBeta returns log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a+b).
func LogBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// Beta returns the (complete) beta function B(a, b).
func Beta(a, b float64) float64 {
	return math.Exp(LogBeta(a, b))
}

// RegIncBeta returns the regularized incomplete beta function
// I_x(a, b) = B(x; a, b) / B(a, b), for a, b > 0 and x in [0, 1].
func RegIncBeta(a, b, x float64) float64 {
	if a <= 0 || b <= 0 || x < 0 || x > 1 || math.IsNaN(x) {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	bt := math.Exp(a*math.Log(x) + b*math.Log(1-x) - LogBeta(a, b))
	if x < (a+1)/(a+b+2) {
		return bt * betaCF(a, b, x) / a
	}
	return 1 - bt*betaCF(b, a, 1-x)/b
}

// IncBeta returns the unregularized incomplete beta function
// B(x; a, b) = ∫_0^x t^{a-1}(1-t)^{b-1} dt.
func IncBeta(a, b, x float64) float64 {
	return RegIncBeta(a, b, x) * Beta(a, b)
}

// betaCF is the continued fraction for the incomplete beta function
// (Lentz's method).
func betaCF(a, b, x float64) float64 {
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// InvRegIncBeta returns x such that I_x(a, b) = p, for a, b > 0 and
// p in [0, 1]. It mirrors the Numerical Recipes invbetai routine with a
// bisection safeguard.
func InvRegIncBeta(a, b, p float64) float64 {
	if a <= 0 || b <= 0 || p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	if p == 0 {
		return 0
	}
	if p == 1 {
		return 1
	}

	var x float64
	if a >= 1 && b >= 1 {
		pp := p
		if p >= 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		x = (2.30753+t*0.27061)/(1+t*(0.99229+t*0.04481)) - t
		if p < 0.5 {
			x = -x
		}
		al := (x*x - 3) / 6
		h := 2 / (1/(2*a-1) + 1/(2*b-1))
		w := x*math.Sqrt(al+h)/h - (1/(2*b-1)-1/(2*a-1))*(al+5.0/6.0-2/(3*h))
		x = a / (a + b*math.Exp(2*w))
	} else {
		lna := math.Log(a / (a + b))
		lnb := math.Log(b / (a + b))
		t := math.Exp(a*lna) / a
		u := math.Exp(b*lnb) / b
		w := t + u
		if p < t/w {
			x = math.Pow(a*w*p, 1/a)
		} else {
			x = 1 - math.Pow(b*w*(1-p), 1/b)
		}
	}

	afac := -LogBeta(a, b)
	a1 := a - 1
	b1 := b - 1
	for j := 0; j < 32; j++ {
		if x == 0 || x == 1 {
			// Newton escaped the domain; fall back to bisection.
			return invRegIncBetaBisect(a, b, p)
		}
		err := RegIncBeta(a, b, x) - p
		t := math.Exp(a1*math.Log(x) + b1*math.Log(1-x) + afac)
		if t == 0 {
			return invRegIncBetaBisect(a, b, p)
		}
		u := err / t
		t = u / (1 - 0.5*math.Min(1, u*(a1/x-b1/(1-x))))
		x -= t
		if x <= 0 {
			x = 0.5 * (x + t)
		}
		if x >= 1 {
			x = 0.5 * (x + t + 1)
		}
		if math.Abs(t) < eps*x && j > 0 {
			break
		}
	}
	return x
}

// invRegIncBetaBisect is a slow-but-sure inverse used when the Newton
// iteration leaves the domain. It keeps I(lo) < p <= I(hi) and halves
// the bracket until lo and hi are adjacent floats, so it resolves
// answers down to the smallest subnormal, and returns hi.
func invRegIncBetaBisect(a, b, p float64) float64 {
	lo, hi := 0.0, 1.0
	for {
		mid := 0.5 * (lo + hi)
		if mid <= lo || mid >= hi {
			return hi
		}
		if RegIncBeta(a, b, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
}
