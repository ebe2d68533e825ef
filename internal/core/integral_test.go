package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/quad"
)

// testSequences builds representative sequences for a distribution:
// the brute-force shape, plus doubling, arithmetic and the
// equal-probability shape (quantile points, then doubling) for
// unbounded supports, midpoint+bound and bound-only for bounded ones.
func testSequences(d dist.Distribution) []*Sequence {
	recurrence := bruteForceShape(d)
	lo, hi := d.Support()
	if math.IsInf(hi, 1) {
		mean := d.Mean()
		doubling := NewSequence(func(i int, _ []float64) (float64, bool) {
			return mean * math.Pow(2, float64(i)), true
		})
		arithmetic := NewSequence(func(i int, _ []float64) (float64, bool) {
			return mean * float64(i+1), true
		})
		quantiles := NewSequence(func(i int, prefix []float64) (float64, bool) {
			if i < 8 {
				return d.Quantile(float64(i+1) / 9), true
			}
			return 2 * prefix[i-1], true
		})
		return []*Sequence{recurrence, doubling, arithmetic, quantiles}
	}
	mid := (lo + hi) / 2
	if mid <= 0 {
		mid = hi / 2
	}
	two, err := NewExplicitSequence(mid, hi)
	if err != nil {
		panic(err)
	}
	one, err := NewExplicitSequence(hi)
	if err != nil {
		panic(err)
	}
	return []*Sequence{recurrence, two, one}
}

// bruteForceShape returns the cheapest RESERVATIONONLY Proposition-1
// recurrence over 40 first reservations evenly spaced in (a, A1]: the
// shape of every brute-force plan.
func bruteForceShape(d dist.Distribution) *Sequence {
	lo, _ := d.Support()
	a1 := BoundFirstReservation(ReservationOnly, d)
	var best *Sequence
	bestCost := math.Inf(1)
	for k := 1; k <= 40; k++ {
		s := SequenceFromFirstTail(ReservationOnly, d, lo+(a1-lo)*float64(k)/40, DefaultTailEps)
		if c, err := ExpectedCost(ReservationOnly, d, s); err == nil && c < bestCost {
			best, bestCost = s, c
		}
	}
	return best
}

// TestTheorem1Equivalence: the closed summation form of Eq. (4) must
// agree with the direct Eq.-(3) integral for every Table-1 distribution
// and several sequence shapes and cost models — a numerical proof of
// Theorem 1 over the whole workload suite.
func TestTheorem1Equivalence(t *testing.T) {
	models := []CostModel{
		ReservationOnly,
		{Alpha: 1, Beta: 1, Gamma: 0},
		{Alpha: 0.95, Beta: 1, Gamma: 1.05},
		{Alpha: 2, Beta: 0.25, Gamma: 0.5},
	}
	for _, d := range dist.Table1() {
		for si, mk := range testSequences(d) {
			for _, m := range models {
				closed, err := ExpectedCost(m, d, mk.Clone())
				if err != nil {
					t.Fatalf("%s seq%d %v: closed form: %v", d.Name(), si, m, err)
				}
				integral, err := ExpectedCostIntegral(m, d, mk.Clone())
				if err != nil {
					t.Fatalf("%s seq%d %v: integral: %v", d.Name(), si, m, err)
				}
				// Tolerance matches the documented worst-case series
				// truncation (~1e-4) for slowly growing sequences over
				// power-law tails (see survivalCutoff in expected.go);
				// all other combinations agree to ~1e-9.
				if math.Abs(closed-integral) > 1e-4*math.Max(1, closed) {
					t.Errorf("%s seq%d %v: Eq.(4) %.10g vs Eq.(3) %.10g",
						d.Name(), si, m, closed, integral)
				}
			}
		}
	}
}

// TestIntegralUncovered: the Eq.-(3) evaluator also reports infinite
// cost for uncovering sequences.
func TestIntegralUncovered(t *testing.T) {
	d := dist.MustUniform(10, 20)
	s, err := NewExplicitSequence(15)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ExpectedCostIntegral(ReservationOnly, d, s)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(e, 1) {
		t.Errorf("uncovered integral cost = %g, want +Inf", e)
	}
}

// TestIntegralRejectsInvalidModel mirrors the closed form's validation.
func TestIntegralRejectsInvalidModel(t *testing.T) {
	d := dist.MustExponential(1)
	s, _ := NewExplicitSequence(1, 2, 4)
	if _, err := ExpectedCostIntegral(CostModel{}, d, s); err == nil {
		t.Error("invalid model accepted")
	}
}

// ExpectedCostIntegral evaluates the expected cost directly from the
// definition (Eq. 3):
//
//	E(S) = Σ_{k>=1} ∫_{t_{k-1}}^{t_k} C(k, t) f(t) dt
//
// by numerical quadrature over each segment. It is O(segments ×
// quadrature) and is the test oracle for Theorem 1: ExpectedCost (the
// closed summation form, Eq. 4) must agree with this integral for every
// distribution and sequence.
func ExpectedCostIntegral(m CostModel, d dist.Distribution, s *Sequence) (float64, error) {
	if err := m.Validate(); err != nil {
		return math.NaN(), err
	}
	sum := 0.0
	prefixCost := 0.0 // Σ_{i<k} (α t_i + β t_i + γ)
	tPrev := 0.0
	for k := 0; ; k++ {
		sf := d.Survival(tPrev)
		if sf <= survivalCutoff {
			return sum, nil
		}
		tk, err := s.At(k)
		if err != nil {
			if errors.Is(err, ErrEnd) {
				return math.Inf(1), nil
			}
			return math.NaN(), err
		}
		// ∫_{tPrev}^{tk} (prefixCost + α tk + β t + γ) f(t) dt
		seg, qerr := quad.Integrate(func(t float64) float64 {
			return (prefixCost + m.Alpha*tk + m.Beta*t + m.Gamma) * d.PDF(t)
		}, tPrev, tk, 1e-12)
		if qerr != nil && seg == 0 {
			return math.NaN(), qerr
		}
		sum += seg
		prefixCost += m.Alpha*tk + m.Beta*tk + m.Gamma
		tPrev = tk
	}
}
