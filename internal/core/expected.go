package core

import (
	"errors"
	"math"

	"repro/internal/dist"
)

// expectedCostTol is the relative truncation tolerance for the infinite
// series of Eq. (4).
const expectedCostTol = 1e-13

// survivalCutoff ends the Eq.-(4) summation unconditionally: once the
// survival probability is this small, the remaining terms are
// negligible for every sequence the library generates. It also bounds
// the work for slowly growing sequences over heavy-tailed laws (e.g.
// an arithmetic sequence under a Pareto tail), where the per-term
// relative tolerance alone would require millions of terms; the
// truncation error committed is below ~1e-4 in the worst such case.
const survivalCutoff = 1e-12

// ExpectedCost evaluates the expected cost of a reservation sequence
// analytically with the closed form of Theorem 1 (Eq. 4):
//
//	E(S) = β·E[X] + Σ_{i>=0} (α·t_{i+1} + β·t_i + γ)·P(X >= t_i),  t_0 = 0.
//
// For distributions with bounded support the summation ends when the
// survival reaches 0; for unbounded support it is truncated once the
// remaining tail is negligible relative to the accumulated value. A
// finite sequence that fails to cover the support has infinite expected
// cost (the job may never complete); an invalid (non-increasing)
// sequence yields an error.
func ExpectedCost(m CostModel, d dist.Distribution, s *Sequence) (float64, error) {
	sum := m.Beta * d.Mean()
	tPrev := 0.0 // t_0 = 0
	for i := 0; ; i++ {
		sf := d.Survival(tPrev)
		if sf <= survivalCutoff {
			return sum, nil
		}
		ti, err := s.At(i)
		if err != nil {
			if errors.Is(err, ErrEnd) {
				// Finite sequence with mass above its last value.
				return math.Inf(1), nil
			}
			return math.NaN(), err
		}
		term := (m.Alpha*ti + m.Beta*tPrev + m.Gamma) * sf
		sum += term
		// Early truncation once both the survival and the current term
		// are negligible.
		if sf < 1e-9 && term < expectedCostTol*math.Max(1, sum) {
			return sum, nil
		}
		tPrev = ti
	}
}

// BoundFirstReservation returns A1, the Theorem-2 upper bound (Eq. 6)
// on the first reservation t_1 of an optimal sequence for a
// distribution with infinite support:
//
//	A1 = E[X] + 1 + (α+β)/(2α)·(E[X²]-a²) + (α+β+γ)/α·(E[X]-a).
//
// For a distribution with bounded support the optimal t_1 is at most
// the upper end b, so min(b, A1) is returned.
func BoundFirstReservation(m CostModel, d dist.Distribution) float64 {
	a, b := d.Support()
	ex := d.Mean()
	ex2 := dist.SecondMoment(d)
	a1 := ex + 1 +
		(m.Alpha+m.Beta)/(2*m.Alpha)*(ex2-a*a) +
		(m.Alpha+m.Beta+m.Gamma)/m.Alpha*(ex-a)
	if !math.IsInf(b, 1) {
		return math.Min(b, a1)
	}
	return a1
}

// BoundExpectedCost returns A2, the Theorem-2 upper bound (Eq. 7) on
// the optimal expected cost: A2 = β·E[X] + α·A1 + γ.
func BoundExpectedCost(m CostModel, d dist.Distribution) float64 {
	return m.Beta*d.Mean() + m.Alpha*BoundFirstReservation(m, d) + m.Gamma
}
