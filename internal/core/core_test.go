package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
)

func explicit(t *testing.T, vals ...float64) *Sequence {
	t.Helper()
	s, err := NewExplicitSequence(vals...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCostModelValidate(t *testing.T) {
	good := []CostModel{ReservationOnly, {1, 1, 1}, {0.95, 1, 1.05}}
	for _, m := range good {
		if err := m.Validate(); err != nil {
			t.Errorf("%v rejected: %v", m, err)
		}
	}
	bad := []CostModel{{}, {-1, 0, 0}, {1, -1, 0}, {1, 0, -1}, {math.NaN(), 0, 0}, {1, math.Inf(1), 0}}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("%v accepted", m)
		}
	}
}

func TestAttemptCost(t *testing.T) {
	m := CostModel{Alpha: 2, Beta: 3, Gamma: 5}
	// Job finishes inside the reservation: pay α·res + β·t + γ.
	if got := m.AttemptCost(10, 4); got != 2*10+3*4+5 {
		t.Errorf("AttemptCost(10,4) = %g", got)
	}
	// Job overruns: used time equals reservation.
	if got := m.AttemptCost(10, 40); got != 2*10+3*10+5 {
		t.Errorf("AttemptCost(10,40) = %g", got)
	}
}

func TestRunCostEq2(t *testing.T) {
	m := CostModel{Alpha: 1, Beta: 0.5, Gamma: 2}
	s := explicit(t, 2, 4, 8)
	// t = 5 needs k = 3 attempts.
	cost, k, err := m.RunCost(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := (1*2 + 0.5*2 + 2) + (1*4 + 0.5*4 + 2) + (1*8 + 0.5*5 + 2)
	if k != 3 || math.Abs(cost-want) > 1e-12 {
		t.Errorf("RunCost = %g (k=%d), want %g (k=3)", cost, k, want)
	}
	// t below the first reservation: one attempt.
	cost, k, err = m.RunCost(s, 1)
	if err != nil || k != 1 {
		t.Fatalf("RunCost(1): k=%d err=%v", k, err)
	}
	if want := 1*2 + 0.5*1 + 2; math.Abs(cost-want) > 1e-12 {
		t.Errorf("RunCost(1) = %g, want %g", cost, want)
	}
	// t exactly at a boundary belongs to that reservation.
	_, k, _ = m.RunCost(s, 4)
	if k != 2 {
		t.Errorf("RunCost(4): k=%d, want 2", k)
	}
	// Beyond the last reservation: uncovered.
	if _, _, err := m.RunCost(s, 9); !errors.Is(err, ErrUncovered) {
		t.Errorf("RunCost(9) err=%v, want ErrUncovered", err)
	}
}

func TestSequenceValidation(t *testing.T) {
	if _, err := NewExplicitSequence(); err == nil {
		t.Error("empty explicit sequence accepted")
	}
	if _, err := NewExplicitSequence(3, 2); err == nil {
		t.Error("decreasing explicit sequence accepted")
	}
	if _, err := NewExplicitSequence(0); err == nil {
		t.Error("zero first reservation accepted")
	}
	if _, err := NewExplicitSequence(1, 1); err == nil {
		t.Error("repeated reservation accepted")
	}
}

func TestSequenceLazyGeneration(t *testing.T) {
	calls := 0
	s := NewSequence(func(i int, prefix []float64) (float64, bool) {
		calls++
		return float64(i + 1), true
	})
	v, err := s.At(4)
	if err != nil || v != 5 {
		t.Fatalf("At(4) = %g, %v", v, err)
	}
	if calls != 5 {
		t.Errorf("generator called %d times, want 5", calls)
	}
	// Re-reading does not regenerate.
	if _, err := s.At(2); err != nil {
		t.Fatal(err)
	}
	if calls != 5 {
		t.Errorf("generator re-called: %d", calls)
	}
}

func TestSequenceNonIncreasingDetected(t *testing.T) {
	s := NewSequence(func(i int, prefix []float64) (float64, bool) {
		return 10 - float64(i), true // 10, 9, 8: decreasing after first
	})
	if _, err := s.At(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.At(1); !errors.Is(err, ErrNonIncreasing) {
		t.Errorf("err = %v, want ErrNonIncreasing", err)
	}
	// The error is sticky.
	if _, err := s.At(5); !errors.Is(err, ErrNonIncreasing) {
		t.Errorf("sticky err = %v", err)
	}
}

func TestSequenceEndAndTooLong(t *testing.T) {
	s := NewSequence(func(i int, prefix []float64) (float64, bool) {
		if i >= 3 {
			return 0, false
		}
		return float64(i + 1), true
	})
	if _, err := s.At(3); !errors.Is(err, ErrEnd) {
		t.Errorf("err = %v, want ErrEnd", err)
	}
	long := NewSequence(func(i int, prefix []float64) (float64, bool) {
		return float64(i + 1), true
	})
	if _, err := long.At(MaxSequenceLen + 10); !errors.Is(err, ErrTooLong) {
		t.Errorf("err = %v, want ErrTooLong", err)
	}
}

func TestFirstCovering(t *testing.T) {
	s := explicit(t, 2, 4, 8)
	cases := []struct {
		t    float64
		want int
	}{{1, 0}, {2, 0}, {2.5, 1}, {4, 1}, {7.9, 2}, {8, 2}}
	for _, c := range cases {
		got, err := s.FirstCovering(c.t)
		if err != nil || got != c.want {
			t.Errorf("FirstCovering(%g) = %d, %v; want %d", c.t, got, err, c.want)
		}
	}
	if _, err := s.FirstCovering(9); !errors.Is(err, ErrUncovered) {
		t.Errorf("FirstCovering(9) err = %v", err)
	}
}

func TestOmniscientCost(t *testing.T) {
	d := dist.MustUniform(10, 20)
	m := CostModel{Alpha: 2, Beta: 1, Gamma: 3}
	if got, want := m.OmniscientCost(d), 3.0*15+3; got != want {
		t.Errorf("omniscient = %g, want %g", got, want)
	}
}

// TestExpectedCostUniformClosedForm checks Eq. (4) against the worked
// two-reservation UNIFORM example of §2.3.
func TestExpectedCostUniformClosedForm(t *testing.T) {
	a, b := 10.0, 20.0
	d := dist.MustUniform(a, b)
	m := CostModel{Alpha: 1, Beta: 0.5, Gamma: 2}
	mid := (a + b) / 2
	s := explicit(t, mid, b)
	got, err := ExpectedCost(m, d, s)
	if err != nil {
		t.Fatal(err)
	}
	// Direct evaluation of Eq. (3) for S = (mid, b):
	// t in [a, mid]: α·mid + β·t + γ; t in [mid, b]: add the full first
	// attempt and α·b + β·t + γ.
	first := m.Alpha*mid + m.Beta*(a+mid)/2 + m.Gamma
	second := (m.Alpha*mid + m.Beta*mid + m.Gamma) + m.Alpha*b + m.Beta*(mid+b)/2 + m.Gamma
	want := 0.5*first + 0.5*second
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ExpectedCost = %.12g, want %.12g", got, want)
	}
}

// TestTheorem4UniformSingleReservation: for Uniform(a,b) the single
// reservation (b) beats any (t1, b) with t1 < b, for several cost
// models.
func TestTheorem4UniformSingleReservation(t *testing.T) {
	d := dist.MustUniform(10, 20)
	for _, m := range []CostModel{ReservationOnly, {1, 1, 0}, {1, 0.5, 2}, {0.95, 1, 1.05}} {
		best, err := ExpectedCost(m, d, explicit(t, 20))
		if err != nil {
			t.Fatal(err)
		}
		for _, t1 := range []float64{11, 14, 15, 18, 19.9} {
			e, err := ExpectedCost(m, d, explicit(t, t1, 20))
			if err != nil {
				t.Fatal(err)
			}
			if e <= best {
				t.Errorf("%v: E(%g, 20) = %g <= E(20) = %g, contradicts Theorem 4", m, t1, e, best)
			}
		}
	}
}

// TestUniformNormalizedCost: Table-1 Uniform under ReservationOnly has
// normalized cost b/E[X] = 20/15 = 4/3 for the optimal strategy.
func TestUniformNormalizedCost(t *testing.T) {
	d := dist.MustUniform(10, 20)
	r, err := normalizedExpectedCost(ReservationOnly, d, explicit(t, 20))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-4.0/3.0) > 1e-12 {
		t.Errorf("normalized cost = %.12g, want 4/3", r)
	}
}

func TestExpectedCostUncoveredIsInfinite(t *testing.T) {
	d := dist.MustUniform(10, 20)
	e, err := ExpectedCost(ReservationOnly, d, explicit(t, 15)) // covers only half
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(e, 1) {
		t.Errorf("uncovered sequence cost = %g, want +Inf", e)
	}
}

// TestExpectedCostExponentialArithmetic checks Eq. (4) on the
// arithmetic sequence t_i = i/λ of §2.3:
// E = Σ_{i>=0} ((i+1)/λ)·e^{-i} = (1/λ)·Σ (i+1) e^{-i} = (1/λ)/(1-e^{-1})².
func TestExpectedCostExponentialArithmetic(t *testing.T) {
	for _, lambda := range []float64{0.5, 1, 2} {
		d := dist.MustExponential(lambda)
		s := NewSequence(func(i int, _ []float64) (float64, bool) {
			return float64(i+1) / lambda, true
		})
		got, err := ExpectedCost(ReservationOnly, d, s)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / lambda / ((1 - math.Exp(-1)) * (1 - math.Exp(-1)))
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("λ=%g: E = %.12g, want %.12g", lambda, got, want)
		}
	}
}

// TestRecurrenceExponential verifies Eq. (11) specializes to
// t_{i+1} = e^{λ(t_i - t_{i-1})}/λ... i.e. s_2 = e^{s_1} for Exp(1)
// under RESERVATIONONLY (Proposition 2).
func TestRecurrenceExponential(t *testing.T) {
	d := dist.MustExponential(1)
	s1 := 0.74219
	s := SequenceFromFirstTail(ReservationOnly, d, s1, 0)
	v0, _ := s.At(0)
	v1, err := s.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != s1 {
		t.Errorf("t1 = %g", v0)
	}
	if math.Abs(v1-math.Exp(s1)) > 1e-12 {
		t.Errorf("t2 = %.12g, want e^{s1} = %.12g", v1, math.Exp(s1))
	}
	// General step: s_i = e^{s_{i-1} - s_{i-2}} (Eq. 12).
	v2, err := s.At(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v2-math.Exp(v1-v0)) > 1e-9 {
		t.Errorf("t3 = %.12g, want %.12g", v2, math.Exp(v1-v0))
	}
}

// TestExponentialOptimalFirstReservation: the brute-force optimum for
// Exp(1) RESERVATIONONLY is s1 ≈ 0.74219 (§3.5); the expected cost at
// the optimum must beat nearby and distant candidates.
func TestExponentialOptimalFirstReservation(t *testing.T) {
	d := dist.MustExponential(1)
	eval := func(t1 float64) float64 {
		s := SequenceFromFirstTail(ReservationOnly, d, t1, DefaultTailEps)
		e, err := ExpectedCost(ReservationOnly, d, s)
		if err != nil {
			return math.Inf(1)
		}
		return e
	}
	best := eval(0.74219)
	if best > 2.5 || best < 2.2 {
		t.Errorf("E at s1=0.74219 is %g, expected ≈2.36", best)
	}
	for _, t1 := range []float64{0.5, 0.6, 0.9, 1.2, 2} {
		if e := eval(t1); e < best-1e-6 {
			t.Errorf("t1=%g has cost %g < optimum %g", t1, e, best)
		}
	}
}

// TestExponentialScaleInvariance (Proposition 2): the optimal sequence
// for Exp(λ) is the Exp(1) sequence scaled by 1/λ, and its cost is
// E1/λ.
func TestExponentialScaleInvariance(t *testing.T) {
	s1 := 0.74219
	d1 := dist.MustExponential(1)
	e1, err := ExpectedCost(ReservationOnly, d1, SequenceFromFirstTail(ReservationOnly, d1, s1, DefaultTailEps))
	if err != nil {
		t.Fatal(err)
	}
	for _, lambda := range []float64{0.25, 2, 10} {
		dl := dist.MustExponential(lambda)
		sl := SequenceFromFirstTail(ReservationOnly, dl, s1/lambda, DefaultTailEps)
		el, err := ExpectedCost(ReservationOnly, dl, sl)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(el-e1/lambda) > 1e-6*e1/lambda {
			t.Errorf("λ=%g: E = %.9g, want E1/λ = %.9g", lambda, el, e1/lambda)
		}
		// The scaled sequence matches element-wise.
		v1, _ := SequenceFromFirstTail(ReservationOnly, d1, s1, DefaultTailEps).Prefix(5)
		vl, _ := sl.Clone().Prefix(5)
		for i := range vl {
			if math.Abs(vl[i]-v1[i]/lambda) > 1e-9*v1[i] {
				t.Errorf("λ=%g: t_%d = %g, want %g", lambda, i+1, vl[i], v1[i]/lambda)
			}
		}
	}
}

// TestRecurrenceBoundedValidity: strict-rule behaviour on bounded
// supports. For Uniform(a,b), Eq. (11) gives t_2 = b-a <= t_1 for every
// t_1 in [a, b), so every candidate except t_1 = b is invalid — exactly
// the Table-3 "-" entries and the content of Theorem 4. For Beta(2,2),
// candidates with 6·t1(1-t1) <= 1 (t1 >= ~0.7887) reach b in one step
// and close with b.
func TestRecurrenceBoundedValidity(t *testing.T) {
	u := dist.MustUniform(10, 20)
	for _, t1 := range []float64{12.5, 15, 17.5, 19.9} {
		s := SequenceFromFirstTail(ReservationOnly, u, t1, 0)
		if _, err := s.Prefix(10); !errors.Is(err, ErrNonIncreasing) {
			t.Errorf("Uniform t1=%g: err = %v, want ErrNonIncreasing", t1, err)
		}
	}
	s := SequenceFromFirstTail(ReservationOnly, u, 20, 0)
	vals, err := s.Prefix(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 20 {
		t.Errorf("Uniform t1=b: sequence %v, want (20)", vals)
	}
	if _, err := s.At(1); !errors.Is(err, ErrEnd) {
		t.Errorf("expected ErrEnd after b, got %v", err)
	}

	beta := dist.MustBeta(2, 2)
	s = SequenceFromFirstTail(ReservationOnly, beta, 0.85, 0)
	vals, err = s.Prefix(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[1] != 1 {
		t.Errorf("Beta t1=0.85: sequence %v, want (0.85, 1)", vals)
	}
	// Below the threshold the strict rule invalidates the candidate.
	s = SequenceFromFirstTail(ReservationOnly, beta, 0.5, 0)
	if _, err := s.Prefix(10); !errors.Is(err, ErrNonIncreasing) {
		t.Errorf("Beta t1=0.5: err = %v, want ErrNonIncreasing", err)
	}
}

func TestBoundFirstReservation(t *testing.T) {
	// Exponential(1), RESERVATIONONLY: A1 = E[X]+1+(E[X²]-0)/2+(E[X]-0)
	// = 1+1+1+1 = 4.
	d := dist.MustExponential(1)
	if got := BoundFirstReservation(ReservationOnly, d); math.Abs(got-4) > 1e-12 {
		t.Errorf("A1 = %g, want 4", got)
	}
	// A2 = α·A1 + γ + β·E[X] = 4.
	if got := BoundExpectedCost(ReservationOnly, d); math.Abs(got-4) > 1e-12 {
		t.Errorf("A2 = %g, want 4", got)
	}
	// Bounded support: A1 is clamped at b.
	u := dist.MustUniform(10, 20)
	if got := BoundFirstReservation(ReservationOnly, u); got != 20 {
		t.Errorf("A1 for Uniform = %g, want 20", got)
	}
}

// TestBoundDominatesOptimal: A1 must upper-bound the empirically best
// t1 and A2 the best expected cost, across Table-1 distributions.
func TestBoundDominatesOptimal(t *testing.T) {
	for _, d := range dist.Table1() {
		m := ReservationOnly
		a1 := BoundFirstReservation(m, d)
		a2 := BoundExpectedCost(m, d)
		lo, _ := d.Support()
		bestCost := math.Inf(1)
		for i := 0; i <= 50; i++ {
			t1 := lo + (a1-lo)*float64(i)/50
			if t1 <= 0 {
				continue
			}
			e, err := ExpectedCost(m, d, SequenceFromFirstTail(m, d, t1, DefaultTailEps))
			if err != nil || math.IsInf(e, 1) {
				continue
			}
			if e < bestCost {
				bestCost = e
			}
		}
		if bestCost > a2+1e-9 {
			t.Errorf("%s: best scanned cost %g exceeds A2 = %g", d.Name(), bestCost, a2)
		}
	}
}

// TestConvexAffineMatchesEq11: with G affine the convex recurrence and
// cost must coincide with the affine ones.
func TestConvexAffineMatchesEq11(t *testing.T) {
	m := CostModel{Alpha: 0.95, Beta: 1, Gamma: 1.05}
	g := AffineCost{Alpha: m.Alpha, Gamma: m.Gamma}
	d := dist.MustLogNormal(0.5, 0.4)
	// Find a t1 that yields a valid sequence under the affine model.
	var t1 float64
	var sa *Sequence
	var va []float64
	found := false
	for i := 1; i <= 400 && !found; i++ {
		t1 = float64(i) * 0.05
		sa = SequenceFromFirstTail(m, d, t1, DefaultTailEps)
		if v, err := sa.Prefix(8); err == nil {
			va, found = v, true
		}
	}
	if !found {
		t.Fatal("no valid t1 found for the affine recurrence")
	}
	sc := SequenceFromFirstConvexTail(g, m.Beta, d, t1, DefaultTailEps)
	vc, err2 := sc.Prefix(8)
	if err2 != nil {
		t.Fatalf("convex prefix error at t1=%g: %v", t1, err2)
	}
	for i := range va {
		if math.Abs(va[i]-vc[i]) > 1e-9*math.Max(1, va[i]) {
			t.Errorf("element %d: affine %g vs convex %g", i, va[i], vc[i])
		}
	}
	ea, _ := ExpectedCost(m, d, sa.Clone())
	ec, err := ExpectedCostConvex(g, m.Beta, d, sc.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ea-ec) > 1e-9*ea {
		t.Errorf("expected costs differ: affine %g vs convex %g", ea, ec)
	}
}

func TestQuadraticCostInverse(t *testing.T) {
	g := QuadraticCost{A: 2, B: 3, C: 1}
	f := func(x float64) bool {
		x = math.Abs(math.Mod(x, 100))
		y := g.At(x)
		back := g.Inverse(y)
		return math.Abs(back-x) < 1e-8*(1+x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Derivative sanity: finite difference.
	for _, x := range []float64{0, 1, 5} {
		h := 1e-6
		fd := (g.At(x+h) - g.At(x-h)) / (2 * h)
		if math.Abs(fd-g.Deriv(x)) > 1e-4 {
			t.Errorf("Deriv(%g) = %g, finite difference %g", x, g.Deriv(x), fd)
		}
	}
}

// TestQuadraticConvexSequenceValid: the convex recurrence under a
// quadratic cost produces an increasing sequence with finite expected
// cost for a reasonable t1.
func TestQuadraticConvexSequenceValid(t *testing.T) {
	g := QuadraticCost{A: 0.1, B: 1, C: 0.5}
	d := dist.MustExponential(1)
	var s *Sequence
	var vals []float64
	found := false
	for i := 1; i <= 200 && !found; i++ {
		s = SequenceFromFirstConvexTail(g, 0, d, float64(i)*0.02, DefaultTailEps)
		if v, err := s.Prefix(6); err == nil {
			vals, found = v, true
		}
	}
	if !found {
		t.Fatal("no valid t1 found for the quadratic convex recurrence")
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] <= vals[i-1] {
			t.Fatalf("not increasing: %v", vals)
		}
	}
	e, err := ExpectedCostConvex(g, 0, d, s.Clone())
	if err != nil || math.IsInf(e, 1) {
		t.Errorf("expected cost = %g, err %v", e, err)
	}
}

func TestNormalizedAtLeastOne(t *testing.T) {
	// Property: any valid strategy costs at least the omniscient one.
	for _, d := range dist.Table1() {
		lo, hi := d.Support()
		var s *Sequence
		if math.IsInf(hi, 1) {
			mean := d.Mean()
			s = NewSequence(func(i int, _ []float64) (float64, bool) {
				return mean * float64(i+1), true
			})
		} else {
			var err error
			s, err = NewExplicitSequence(lo+(hi-lo)/2, hi)
			if err != nil {
				t.Fatal(err)
			}
		}
		r, err := normalizedExpectedCost(ReservationOnly, d, s)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		if r < 1 {
			t.Errorf("%s: normalized cost %g < 1", d.Name(), r)
		}
	}
}

func TestSequenceString(t *testing.T) {
	s := explicit(t, 1, 2, 3)
	if got := s.String(); got == "" {
		t.Error("empty String()")
	}
	bad := NewSequence(func(i int, _ []float64) (float64, bool) { return -1, true })
	if got := bad.String(); got == "" {
		t.Error("empty String() for invalid sequence")
	}
}

// normalizedExpectedCost is ExpectedCost over the omniscient cost
// (§5.1).
func normalizedExpectedCost(m CostModel, d dist.Distribution, s *Sequence) (float64, error) {
	e, err := ExpectedCost(m, d, s)
	if err != nil {
		return math.NaN(), err
	}
	return e / m.OmniscientCost(d), nil
}
