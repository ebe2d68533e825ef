package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/rng"
)

// TestCostHomogeneity: scaling (α, β, γ) jointly by k scales every cost
// by k — Eq. (2) and Eq. (4) are 1-homogeneous in the price vector.
func TestCostHomogeneity(t *testing.T) {
	d := dist.MustLogNormal(1, 0.5)
	mk := func() *Sequence {
		mean := d.Mean()
		return NewSequence(func(i int, _ []float64) (float64, bool) {
			return mean * math.Pow(2, float64(i)), true
		})
	}
	f := func(kRaw, aRaw, bRaw, gRaw uint8) bool {
		k := 0.1 + float64(kRaw)/32
		m := CostModel{
			Alpha: 0.1 + float64(aRaw)/64,
			Beta:  float64(bRaw) / 64,
			Gamma: float64(gRaw) / 64,
		}
		km := CostModel{Alpha: k * m.Alpha, Beta: k * m.Beta, Gamma: k * m.Gamma}
		e1, err1 := ExpectedCost(m, d, mk())
		e2, err2 := ExpectedCost(km, d, mk())
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(e2-k*e1) > 1e-9*(1+k*e1) {
			return false
		}
		// Per-run cost too.
		c1, _, err1 := m.RunCost(mk(), 3.7)
		c2, _, err2 := km.RunCost(mk(), 3.7)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(c2-k*c1) < 1e-9*(1+k*c1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestTimeScalingCovariance: with γ = 0, scaling the distribution AND
// the sequence by c scales the expected cost by c (the dimensional
// analysis behind Proposition 2's 1/λ law).
func TestTimeScalingCovariance(t *testing.T) {
	base := dist.MustExponential(1)
	m := CostModel{Alpha: 1, Beta: 0.7}
	f := func(cRaw uint8) bool {
		c := 0.25 + float64(cRaw)/32
		scaled, err := dist.NewScaled(base, c)
		if err != nil {
			return false
		}
		mkBase := NewSequence(func(i int, _ []float64) (float64, bool) {
			return float64(i+1) * 0.8, true
		})
		mkScaled := NewSequence(func(i int, _ []float64) (float64, bool) {
			return float64(i+1) * 0.8 * c, true
		})
		e1, err1 := ExpectedCost(m, base, mkBase)
		e2, err2 := ExpectedCost(m, scaled, mkScaled)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(e2-c*e1) < 1e-7*(1+c*e1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestRunCostMonotoneInJobDuration: for a fixed sequence, the cost of a
// run never decreases with the job duration.
func TestRunCostMonotoneInJobDuration(t *testing.T) {
	m := CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.2}
	s, err := NewExplicitSequence(1, 2, 4, 8, 16, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint16) bool {
		t1 := float64(aRaw%6400) / 100
		t2 := float64(bRaw%6400) / 100
		if t1 == 0 || t2 == 0 {
			return true
		}
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		c1, _, err1 := m.RunCost(s, t1)
		c2, _, err2 := m.RunCost(s, t2)
		if err1 != nil || err2 != nil {
			return true // beyond coverage
		}
		return c1 <= c2+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestExpectedCostMonotoneUnderSequenceRefinement: inserting an extra
// reservation below the first one can only help when it catches enough
// mass — but removing the FIRST element of a sequence never decreases
// the cost of jobs below it. Concretely we test the Theorem-4 argument:
// dropping t1 from (t1, b) changes the cost by exactly the closed-form
// difference computed in the paper's proof.
func TestTheorem4CostDifference(t *testing.T) {
	a, b := 10.0, 20.0
	d := dist.MustUniform(a, b)
	f := func(raw uint16, mRaw uint8) bool {
		t1 := a + (b-a)*float64(raw%1000+1)/1002
		m := CostModel{Alpha: 0.5 + float64(mRaw%8)/4, Beta: float64(mRaw%4) / 4, Gamma: float64(mRaw%3) / 2}
		s2, err := NewExplicitSequence(t1, b)
		if err != nil {
			return false
		}
		s1, err := NewExplicitSequence(b)
		if err != nil {
			return false
		}
		e2, err2 := ExpectedCost(m, d, s2)
		e1, err1 := ExpectedCost(m, d, s1)
		if err1 != nil || err2 != nil {
			return false
		}
		// Proof of Theorem 4 (with t2 = b, Z = 0):
		// E(S) - E(S') = (α·u + β·v + γ·w)/(b-a), u = a(b-t1)... for
		// t2 = b: u = t1(b-b) + a(b-t1) = a(b-t1), v = t1(b-t1),
		// w = b-t1.
		u := a * (b - t1)
		v := t1 * (b - t1)
		w := b - t1
		want := (m.Alpha*u + m.Beta*v + m.Gamma*w) / (b - a)
		return math.Abs((e2-e1)-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestSequenceCloneIndependence: clones materialize independently and
// agree with the original, including under concurrent use.
func TestSequenceCloneIndependence(t *testing.T) {
	d := dist.MustExponential(1)
	s := SequenceFromFirstTail(ReservationOnly, d, 0.9, DefaultTailEps)
	// Materialize a bit, clone, then race the clones.
	if _, err := s.At(2); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([][]float64, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cp := s.Clone()
			v, err := cp.Prefix(10)
			if err == nil {
				results[w] = v
			}
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatalf("worker %d saw %d values, worker 0 saw %d", w, len(results[w]), len(results[0]))
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("clone divergence at %d", i)
			}
		}
	}
}

// TestBoundsScaleWithRates: A1 for Exp(λ) shrinks as λ grows (shorter
// jobs need shorter search intervals) — a sanity property over random
// rates.
func TestBoundsScaleWithRates(t *testing.T) {
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		l1 := 0.2 + 5*r.Float64()
		l2 := l1 * (1 + r.Float64())
		a1 := BoundFirstReservation(ReservationOnly, dist.MustExponential(l1))
		a2 := BoundFirstReservation(ReservationOnly, dist.MustExponential(l2))
		if a2 > a1+1e-12 {
			t.Fatalf("A1 grew with rate: λ=%g→%g gives %g→%g", l1, l2, a1, a2)
		}
	}
}
