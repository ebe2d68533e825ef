package dist

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/quad"
	"repro/internal/rng"
)

// all returns the Table-1 distributions used across the generic tests.
func all() []Distribution { return Table1() }

func relClose(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

func TestPDFIntegratesToOne(t *testing.T) {
	for _, d := range all() {
		lo, hi := d.Support()
		var total float64
		var err error
		if math.IsInf(hi, 1) {
			total, err = quad.IntegrateToInf(d.PDF, lo, 1e-11)
		} else {
			total, err = quad.Integrate(d.PDF, lo, hi, 1e-11)
		}
		if err != nil && !relClose(total, 1, 1e-6) {
			t.Errorf("%s: pdf integration error: %v (total=%g)", d.Name(), err, total)
			continue
		}
		if !relClose(total, 1, 1e-6) {
			t.Errorf("%s: ∫pdf = %.10g, want 1", d.Name(), total)
		}
	}
}

func TestCDFMatchesIntegratedPDF(t *testing.T) {
	// Compare CDF increments over interior intervals so that densities
	// with an integrable singularity at the support edge (Weibull κ<1,
	// Gamma α<1) do not break the quadrature.
	for _, d := range all() {
		x0 := d.Quantile(0.05)
		for _, p := range []float64{0.2, 0.5, 0.8, 0.97} {
			x := d.Quantile(p)
			want, err := quad.Integrate(d.PDF, x0, x, 1e-11)
			if err != nil {
				t.Errorf("%s: quad error at x=%g: %v", d.Name(), x, err)
				continue
			}
			if got := d.CDF(x) - d.CDF(x0); !relClose(got, want, 1e-6) {
				t.Errorf("%s: F(%g)-F(%g) = %.10g, ∫pdf = %.10g", d.Name(), x, x0, got, want)
			}
		}
	}
}

func TestSurvivalComplementsCDF(t *testing.T) {
	for _, d := range all() {
		lo, hi := d.Support()
		if math.IsInf(hi, 1) {
			hi = d.Quantile(0.999)
		}
		for _, frac := range []float64{0, 0.2, 0.5, 0.8, 1} {
			x := lo + frac*(hi-lo)
			s, f := d.Survival(x), d.CDF(x)
			if math.Abs(s+f-1) > 1e-9 {
				t.Errorf("%s: S(%g)+F(%g) = %g, want 1", d.Name(), x, x, s+f)
			}
		}
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	ps := []float64{1e-6, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1 - 1e-6}
	for _, d := range all() {
		for _, p := range ps {
			x := d.Quantile(p)
			got := d.CDF(x)
			if math.Abs(got-p) > 1e-7 {
				t.Errorf("%s: CDF(Q(%g)=%g) = %.10g", d.Name(), p, x, got)
			}
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	for _, d := range all() {
		lo, hi := d.Support()
		q0 := d.Quantile(0)
		if math.Abs(q0-lo) > 1e-12 {
			t.Errorf("%s: Q(0) = %g, want support low %g", d.Name(), q0, lo)
		}
		q1 := d.Quantile(1)
		if math.IsInf(hi, 1) {
			if !math.IsInf(q1, 1) {
				t.Errorf("%s: Q(1) = %g, want +Inf", d.Name(), q1)
			}
		} else if math.Abs(q1-hi) > 1e-9 {
			t.Errorf("%s: Q(1) = %g, want support high %g", d.Name(), q1, hi)
		}
		// Out-of-range probabilities clamp.
		if got := d.Quantile(-0.5); math.Abs(got-q0) > 1e-12 {
			t.Errorf("%s: Q(-0.5) = %g, want Q(0)=%g", d.Name(), got, q0)
		}
	}
}

func TestMeanMatchesQuadrature(t *testing.T) {
	for _, d := range all() {
		want := MeanNumeric(d)
		if got := d.Mean(); !relClose(got, want, 1e-5) {
			t.Errorf("%s: Mean = %.10g, quadrature = %.10g", d.Name(), got, want)
		}
	}
}

func TestVarianceMatchesQuadrature(t *testing.T) {
	for _, d := range all() {
		want := VarianceNumeric(d)
		if got := d.Variance(); math.Abs(got-want) > 1e-4*math.Max(1, want) {
			t.Errorf("%s: Variance = %.10g, quadrature = %.10g", d.Name(), got, want)
		}
	}
}

func TestCondMeanMatchesQuadrature(t *testing.T) {
	for _, d := range all() {
		cm, ok := d.(CondMeaner)
		if !ok {
			t.Errorf("%s: no closed-form CondMean", d.Name())
			continue
		}
		lo, hi := d.Support()
		if math.IsInf(hi, 1) {
			hi = d.Quantile(0.99)
		}
		for _, frac := range []float64{0, 0.2, 0.5, 0.8} {
			tau := lo + frac*(hi-lo)
			want := CondMeanNumeric(d, tau)
			got := cm.CondMean(tau)
			if !relClose(got, want, 1e-5) {
				t.Errorf("%s: CondMean(%g) = %.10g, quadrature = %.10g", d.Name(), tau, got, want)
			}
			if got < tau {
				t.Errorf("%s: CondMean(%g) = %g < τ", d.Name(), tau, got)
			}
		}
	}
}

func TestCondMeanAtSupportLowEqualsMean(t *testing.T) {
	for _, d := range all() {
		lo, _ := d.Support()
		got := CondMean(d, lo)
		if !relClose(got, d.Mean(), 1e-9) {
			t.Errorf("%s: CondMean(lo) = %.10g, want Mean = %.10g", d.Name(), got, d.Mean())
		}
	}
}

func TestTable1KnownMoments(t *testing.T) {
	// Closed-form expectations for the paper's instantiations.
	cases := []struct {
		idx        int
		mean, varc float64
	}{
		{0, 1, 1},               // Exponential(1)
		{1, 2, 20},              // Weibull(1, 0.5): λΓ(3)=2, λ²(Γ(5)-Γ(3)²)=24-4
		{2, 1, 0.5},             // Gamma(2,2)
		{3, math.Exp(3.125), 0}, // LogNormal(3, 0.5): e^{3+0.125}
		{5, 2.25, 1.6875},       // Pareto(1.5,3): 3·1.5/2, 3·2.25/(4·1)
		{6, 15, 100.0 / 12.0},   // Uniform(10,20)
		{7, 0.5, 0.05},          // Beta(2,2)
	}
	ds := all()
	for _, c := range cases {
		d := ds[c.idx]
		if !relClose(d.Mean(), c.mean, 1e-10) {
			t.Errorf("%s: Mean = %.12g, want %.12g", d.Name(), d.Mean(), c.mean)
		}
		if c.varc > 0 && !relClose(d.Variance(), c.varc, 1e-10) {
			t.Errorf("%s: Variance = %.12g, want %.12g", d.Name(), d.Variance(), c.varc)
		}
	}
}

func TestExponentialMemoryless(t *testing.T) {
	d := MustExponential(2.5)
	// P(X > s+t | X > s) = P(X > t).
	for _, s := range []float64{0.1, 1, 3} {
		for _, x := range []float64{0.2, 0.7, 2} {
			lhs := d.Survival(s+x) / d.Survival(s)
			rhs := d.Survival(x)
			if !relClose(lhs, rhs, 1e-12) {
				t.Errorf("memoryless violated: s=%g x=%g: %g vs %g", s, x, lhs, rhs)
			}
		}
	}
	if got := d.CondMean(3); !relClose(got, 3+1/2.5, 1e-12) {
		t.Errorf("Exponential CondMean(3) = %g, want %g", got, 3+1/2.5)
	}
}

func TestParetoCondMeanProportional(t *testing.T) {
	d := MustPareto(1.5, 3)
	// E[X|X>τ] = ατ/(α-1) = 1.5τ.
	for _, tau := range []float64{1.5, 2, 5, 100} {
		if got := d.CondMean(tau); !relClose(got, 1.5*tau, 1e-12) {
			t.Errorf("Pareto CondMean(%g) = %g, want %g", tau, got, 1.5*tau)
		}
	}
}

func TestUniformCondMean(t *testing.T) {
	d := MustUniform(10, 20)
	if got := d.CondMean(12); got != 16 {
		t.Errorf("Uniform CondMean(12) = %g, want 16", got)
	}
	if got := d.CondMean(0); got != 15 {
		t.Errorf("Uniform CondMean(0) = %g, want mean 15", got)
	}
	if got := d.CondMean(20); !math.IsNaN(got) {
		t.Errorf("Uniform CondMean(b) = %g, want NaN", got)
	}
}

func TestSamplingMatchesMoments(t *testing.T) {
	r := rng.New(31415)
	for _, d := range all() {
		const n = 60000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := Sample(d, r)
			sum += x
			sum2 += x * x
		}
		mean := sum / n
		sd := math.Sqrt(sum2/n - mean*mean)
		wantSD := StdDev(d)
		if math.Abs(mean-d.Mean()) > 5*wantSD/math.Sqrt(n)+0.01*d.Mean() {
			t.Errorf("%s: sample mean %g vs %g", d.Name(), mean, d.Mean())
		}
		// Standard deviation is noisier (esp. heavy tails); loose check.
		if math.Abs(sd-wantSD) > 0.25*wantSD {
			t.Errorf("%s: sample sd %g vs %g", d.Name(), sd, wantSD)
		}
	}
}

func TestSampleNLength(t *testing.T) {
	r := rng.New(1)
	xs := SampleN(MustExponential(1), r, 17)
	if len(xs) != 17 {
		t.Fatalf("SampleN returned %d values, want 17", len(xs))
	}
	lo, _ := MustExponential(1).Support()
	for _, x := range xs {
		if x < lo {
			t.Errorf("sample %g below support", x)
		}
	}
}

func TestConstructorsReject(t *testing.T) {
	bad := []func() error{
		func() error { _, err := NewExponential(0); return err },
		func() error { _, err := NewExponential(-2); return err },
		func() error { _, err := NewWeibull(1, 0); return err },
		func() error { _, err := NewWeibull(-1, 1); return err },
		func() error { _, err := NewGamma(0, 1); return err },
		func() error { _, err := NewLogNormal(1, 0); return err },
		func() error { _, err := NewLogNormal(math.NaN(), 1); return err },
		func() error { _, err := NewTruncatedNormal(0, -1, 0); return err },
		func() error { _, err := NewPareto(1, 2); return err }, // needs α>2
		func() error { _, err := NewUniform(5, 5); return err },
		func() error { _, err := NewUniform(-1, 5); return err },
		func() error { _, err := NewBeta(0, 1); return err },
		func() error { _, err := NewBoundedPareto(2, 1, 3); return err },
		func() error { _, err := NewBoundedPareto(1, 20, 1); return err },
		func() error { _, err := NewBoundedPareto(1, 20, 2); return err },
	}
	for i, f := range bad {
		if err := f(); err == nil {
			t.Errorf("constructor case %d accepted invalid parameters", i)
		}
	}
}

func TestNamesIncludeParameters(t *testing.T) {
	for _, d := range all() {
		name := d.Name()
		if !strings.Contains(name, "(") || !strings.Contains(name, ")") {
			t.Errorf("name %q lacks parameter list", name)
		}
	}
	if got := len(Table1Names()); got != len(Table1()) {
		t.Errorf("Table1Names has %d entries, Table1 has %d", got, len(Table1()))
	}
}

func TestMedianIsHalfQuantile(t *testing.T) {
	for _, d := range all() {
		m := Median(d)
		if math.Abs(d.CDF(m)-0.5) > 1e-7 {
			t.Errorf("%s: CDF(median) = %g", d.Name(), d.CDF(m))
		}
	}
}

func TestSecondMomentConsistency(t *testing.T) {
	for _, d := range all() {
		want := d.Variance() + d.Mean()*d.Mean()
		if got := SecondMoment(d); !relClose(got, want, 1e-12) {
			t.Errorf("%s: SecondMoment = %g, want %g", d.Name(), got, want)
		}
	}
}

// TestNaNPropagation: feeding NaN into any distribution method must
// yield NaN (or a harmless constant), never a wrong finite answer or a
// panic.
func TestNaNPropagation(t *testing.T) {
	for _, d := range all() {
		for name, v := range map[string]float64{
			"PDF": d.PDF(math.NaN()), "CDF": d.CDF(math.NaN()),
			"Survival": d.Survival(math.NaN()), "Quantile": d.Quantile(math.NaN()),
		} {
			if !math.IsNaN(v) && !(v == 0 || v == 1) {
				t.Errorf("%s: %s(NaN) = %g, want NaN or a boundary constant", d.Name(), name, v)
			}
		}
	}
}

// TestSurvivalMonotoneNonincreasing across random probe points.
func TestSurvivalMonotoneNonincreasing(t *testing.T) {
	r := rng.New(99)
	for _, d := range all() {
		lo, hi := d.Support()
		if math.IsInf(hi, 1) {
			hi = d.Quantile(0.9999)
		}
		prevX, prevS := lo-1, 1.0
		// Sorted random probes.
		probes := make([]float64, 200)
		for i := range probes {
			probes[i] = lo + (hi-lo)*r.Float64()
		}
		sort.Float64s(probes)
		for _, x := range probes {
			s := d.Survival(x)
			if s > prevS+1e-12 {
				t.Fatalf("%s: survival rose from %g@%g to %g@%g", d.Name(), prevS, prevX, s, x)
			}
			if s < 0 || s > 1 {
				t.Fatalf("%s: survival %g out of [0,1]", d.Name(), s)
			}
			prevX, prevS = x, s
		}
	}
}

// TestNegativeInputsAreOutsideSupport: execution times are nonnegative;
// all mass lies at or above the support's low end.
func TestNegativeInputsAreOutsideSupport(t *testing.T) {
	for _, d := range all() {
		if got := d.CDF(-1); got != 0 {
			t.Errorf("%s: CDF(-1) = %g", d.Name(), got)
		}
		if got := d.PDF(-1); got != 0 {
			t.Errorf("%s: PDF(-1) = %g", d.Name(), got)
		}
		if got := d.Survival(-1); got != 1 {
			t.Errorf("%s: Survival(-1) = %g", d.Name(), got)
		}
	}
}

// numericMoment computes E[X^p] by quadrature, the cross-check for
// the closed-form moments.
func numericMoment(d Distribution, p float64) float64 {
	lo, hi := d.Support()
	g := func(x float64) float64 { return math.Pow(x, p) * d.PDF(x) }
	var v float64
	if math.IsInf(hi, 1) {
		v, _ = quad.IntegrateToInf(g, lo, 1e-12)
	} else {
		v, _ = quad.Integrate(g, lo, hi, 1e-12)
	}
	return v
}

// MeanNumeric is E[X] by quadrature.
func MeanNumeric(d Distribution) float64 { return numericMoment(d, 1) }

// VarianceNumeric is Var[X] by quadrature.
func VarianceNumeric(d Distribution) float64 {
	m := MeanNumeric(d)
	return numericMoment(d, 2) - m*m
}
