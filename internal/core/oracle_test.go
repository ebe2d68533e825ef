package core

// The implementations of the Proposition-1 expansion that walk
// replaced, kept verbatim as the parity oracle for walk,
// RecurrenceCursor and the fused CostCursor: the unfused Eq.-(11)/Eq.-(37) steps, the Sequence
// generator that applied the stopping and tail rules, the two
// hand-fused cost cursors, and the Appendix-C objective evaluated over
// a materialized sequence.

import (
	"math"

	"repro/internal/dist"
)

// NextReservation computes t_{i+1} from (t_{i-1}, t_i) using the
// optimality recurrence of Theorem 3 / Proposition 1 (Eq. 11):
//
//	t_{i+1} = (1-F(t_{i-1}))/f(t_i) + (β/α)·((1-F(t_i))/f(t_i) - t_i) - γ/α.
//
// It returns NaN when the density vanishes at t_i (the recurrence is
// undefined there; Theorem 3 shows this cannot happen along an optimal
// sequence).
func NextReservation(m CostModel, d dist.Distribution, tPrev, tCur float64) float64 {
	f := d.PDF(tCur)
	if !(f > 0) || math.IsInf(f, 0) {
		return math.NaN()
	}
	return d.Survival(tPrev)/f + m.Beta/m.Alpha*(d.Survival(tCur)/f-tCur) - m.Gamma/m.Alpha
}

// sequenceFromRecurrence builds a sequence from t1 and a two-term
// recurrence with the validity and tail rules described on
// SequenceFromFirstTail.
func sequenceFromRecurrence(d dist.Distribution, t1, tailEps float64, step func(prev2, prev float64) float64) *Sequence {
	_, hi := d.Support()
	bounded := !math.IsInf(hi, 1)
	return NewSequence(func(i int, prefix []float64) (float64, bool) {
		if i == 0 {
			if bounded && t1 >= hi {
				return hi, true
			}
			return t1, true
		}
		prev := prefix[i-1]
		if bounded && prev >= hi {
			return 0, false // support covered; the sequence is complete
		}
		prev2 := 0.0 // t_0 = 0
		if i >= 2 {
			prev2 = prefix[i-2]
		}
		next := step(prev2, prev)
		if next > prev {
			if bounded && next >= hi {
				return hi, true // stopping rule: close with b
			}
			return next, true
		}
		// Monotonicity breakdown (including NaN).
		if d.Survival(prev) <= tailEps {
			if bounded {
				return hi, true
			}
			return 2 * prev, true
		}
		return next, true // surfaces as ErrNonIncreasing
	})
}

// NextReservationConvex computes t_{i+1} from (t_{i-1}, t_i) under a
// convex reservation cost G (Appendix C, Eq. 37):
//
//	t_{i+1} = G^{-1}( G'(t_i)·(1-F(t_{i-1}))/f(t_i) + β·((1-F(t_i))/f(t_i) - t_i) ).
func NextReservationConvex(g ConvexCost, beta float64, d dist.Distribution, tPrev, tCur float64) float64 {
	f := d.PDF(tCur)
	if !(f > 0) || math.IsInf(f, 0) {
		return math.NaN()
	}
	y := g.Deriv(tCur)*d.Survival(tPrev)/f + beta*(d.Survival(tCur)/f-tCur)
	return g.Inverse(y)
}

// ExpectedCostConvex evaluates the Appendix-C objective
//
//	E(S) = β·E[X] + Σ_{i>=0} (G(t_{i+1}) + β·t_i)·P(X >= t_i)
//
// (which reduces to Eq. 4 when G is affine).
func ExpectedCostConvex(g ConvexCost, beta float64, d dist.Distribution, s *Sequence) (float64, error) {
	sum := beta * d.Mean()
	tPrev := 0.0
	for i := 0; ; i++ {
		sf := d.Survival(tPrev)
		if sf <= survivalCutoff {
			return sum, nil
		}
		ti, err := s.At(i)
		if err != nil {
			if err == ErrEnd {
				return math.Inf(1), nil
			}
			return math.NaN(), err
		}
		term := (g.At(ti) + beta*tPrev) * sf
		sum += term
		if sf < 1e-9 && term < expectedCostTol*math.Max(1, sum) {
			return sum, nil
		}
		tPrev = ti
	}
}

// oracleSequenceFromFirstTail is the earlier SequenceFromFirstTail.
func oracleSequenceFromFirstTail(m CostModel, d dist.Distribution, t1, tailEps float64) *Sequence {
	return sequenceFromRecurrence(d, t1, tailEps, func(prev2, prev float64) float64 {
		return NextReservation(m, d, prev2, prev)
	})
}

// oracleSequenceFromFirstConvexTail is the earlier
// SequenceFromFirstConvexTail.
func oracleSequenceFromFirstConvexTail(g ConvexCost, beta float64, d dist.Distribution, t1, tailEps float64) *Sequence {
	return sequenceFromRecurrence(d, t1, tailEps, func(prev2, prev float64) float64 {
		return NextReservationConvex(g, beta, d, prev2, prev)
	})
}

// oracleCostCursor is the earlier CostCursor: Eq. (11) fused with
// Eq. (4), pruning against a budget.
type oracleCostCursor struct {
	m       CostModel
	d       dist.Distribution
	tailEps float64

	betaMean float64 // β·E[X], the constant first summand of Eq. (4)
	sf0      float64 // P(X >= t_0) = Survival(0), shared by every candidate
	hi       float64
	bounded  bool
}

// newOracleCostCursor is the earlier NewCostCursor.
func newOracleCostCursor(m CostModel, d dist.Distribution, tailEps float64) oracleCostCursor {
	_, hi := d.Support()
	return oracleCostCursor{
		m: m, d: d, tailEps: tailEps,
		betaMean: m.Beta * d.Mean(),
		sf0:      d.Survival(0.0),
		hi:       hi, bounded: !math.IsInf(hi, 1),
	}
}

// CostBudget is the earlier CostCursor.CostBudget.
func (c *oracleCostCursor) CostBudget(t1, budget float64) (cost float64, pruned bool, err error) {
	sum := c.betaMean
	// Recurrence state: tPrev = t_{i-1} with its survival, sfPrev2 the
	// survival at t_{i-2} (the recurrence needs only the survivals of
	// its two predecessors, not t_{i-2} itself). t_0 = 0.
	tPrev := 0.0
	sfPrev, sfPrev2 := c.sf0, c.sf0
	for i := 0; ; i++ {
		sf := sfPrev // Survival(t_{i-1}), shared with the recurrence
		if sf <= survivalCutoff {
			return sum, false, nil
		}
		// Generate t_i lazily — exactly where Sequence.At would — so
		// errors and the uncovered +Inf surface at the same iteration
		// as ExpectedCost over the materialized sequence.
		if i >= MaxSequenceLen {
			return math.NaN(), false, ErrTooLong
		}
		var ti float64
		if i == 0 {
			ti = t1
			if c.bounded && ti >= c.hi {
				ti = c.hi
			}
		} else {
			if c.bounded && tPrev >= c.hi {
				// Support covered, sequence complete (ErrEnd) — but mass
				// remains above the cutoff: uncovered, infinite cost.
				return math.Inf(1), false, nil
			}
			// NextReservation(m, d, t_{i-2}, t_{i-1}) with the survivals
			// already in hand.
			f := c.d.PDF(tPrev)
			var v float64
			if !(f > 0) || math.IsInf(f, 0) {
				v = math.NaN()
			} else {
				v = sfPrev2/f + c.m.Beta/c.m.Alpha*(sfPrev/f-tPrev) - c.m.Gamma/c.m.Alpha
			}
			if v > tPrev {
				if c.bounded && v >= c.hi {
					v = c.hi // stopping rule: close with b
				}
			} else if sfPrev <= c.tailEps {
				// Breakdown in the negligible tail: close with b (bounded)
				// or extend geometrically (unbounded).
				if c.bounded {
					v = c.hi
				} else {
					v = 2 * tPrev
				}
			}
			if math.IsNaN(v) || v <= tPrev {
				return math.NaN(), false, ErrNonIncreasing
			}
			ti = v
		}
		term := (c.m.Alpha*ti + c.m.Beta*tPrev + c.m.Gamma) * sf
		sum += term
		// Early truncation once both the survival and the current term
		// are negligible (ExpectedCost's exact stopping rule).
		if sf < 1e-9 && term < expectedCostTol*math.Max(1, sum) {
			return sum, false, nil
		}
		if sum > budget {
			return sum, true, nil
		}
		tPrev = ti
		sfPrev2, sfPrev = sfPrev, c.d.Survival(ti)
	}
}

// oracleConvexCostCursor is the earlier ConvexCostCursor: Eq. (37)
// fused with the Appendix-C objective.
type oracleConvexCostCursor struct {
	g       ConvexCost
	beta    float64
	d       dist.Distribution
	tailEps float64

	betaMean float64
	sf0      float64
	hi       float64
	bounded  bool
}

// newOracleConvexCostCursor is the earlier NewConvexCostCursor.
func newOracleConvexCostCursor(g ConvexCost, beta float64, d dist.Distribution, tailEps float64) oracleConvexCostCursor {
	_, hi := d.Support()
	return oracleConvexCostCursor{
		g: g, beta: beta, d: d, tailEps: tailEps,
		betaMean: beta * d.Mean(),
		sf0:      d.Survival(0.0),
		hi:       hi, bounded: !math.IsInf(hi, 1),
	}
}

// CostBudget is the earlier ConvexCostCursor.CostBudget.
func (c *oracleConvexCostCursor) CostBudget(t1, budget float64) (cost float64, pruned bool, err error) {
	sum := c.betaMean
	tPrev := 0.0
	sfPrev, sfPrev2 := c.sf0, c.sf0
	for i := 0; ; i++ {
		sf := sfPrev
		if sf <= survivalCutoff {
			return sum, false, nil
		}
		if i >= MaxSequenceLen {
			return math.NaN(), false, ErrTooLong
		}
		var ti float64
		if i == 0 {
			ti = t1
			if c.bounded && ti >= c.hi {
				ti = c.hi
			}
		} else {
			if c.bounded && tPrev >= c.hi {
				return math.Inf(1), false, nil
			}
			// NextReservationConvex(g, beta, d, t_{i-2}, t_{i-1}) with
			// the survivals already in hand.
			f := c.d.PDF(tPrev)
			var v float64
			if !(f > 0) || math.IsInf(f, 0) {
				v = math.NaN()
			} else {
				y := c.g.Deriv(tPrev)*sfPrev2/f + c.beta*(sfPrev/f-tPrev)
				v = c.g.Inverse(y)
			}
			if v > tPrev {
				if c.bounded && v >= c.hi {
					v = c.hi
				}
			} else if sfPrev <= c.tailEps {
				if c.bounded {
					v = c.hi
				} else {
					v = 2 * tPrev
				}
			}
			if math.IsNaN(v) || v <= tPrev {
				return math.NaN(), false, ErrNonIncreasing
			}
			ti = v
		}
		term := (c.g.At(ti) + c.beta*tPrev) * sf
		sum += term
		if sf < 1e-9 && term < expectedCostTol*math.Max(1, sum) {
			return sum, false, nil
		}
		if sum > budget {
			return sum, true, nil
		}
		tPrev = ti
		sfPrev2, sfPrev = sfPrev, c.d.Survival(ti)
	}
}
