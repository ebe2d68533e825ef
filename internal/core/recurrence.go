package core

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
//
//repro:hotpath
func NextReservation(m CostModel, d dist.Distribution, tPrev, tCur float64) float64 {
	f := d.PDF(tCur)
	if !(f > 0) || math.IsInf(f, 0) {
		return math.NaN()
	}
	return d.Survival(tPrev)/f + m.Beta/m.Alpha*(d.Survival(tCur)/f-tCur) - m.Gamma/m.Alpha
}

// SequenceFromFirst builds the reservation sequence characterized by
// Proposition 1: the given first reservation t1 followed by the Eq.-(11)
// recurrence, under the paper's strict validity rule — the sequence
// must stay strictly increasing, and for bounded support it closes with
// the upper bound b as soon as the recurrence reaches or exceeds it
// (the F(t_i) = 1 stopping rule). Candidates whose recurrence breaks
// monotonicity report ErrNonIncreasing through the sequence methods;
// the brute-force procedure (§4.1) discards them.
func SequenceFromFirst(m CostModel, d dist.Distribution, t1 float64) *Sequence {
	return SequenceFromFirstTail(m, d, t1, 0)
}

// DefaultTailEps is the tail tolerance matching the paper's evaluation
// protocol: with N = 1000 Monte-Carlo samples, the paper's brute force
// never materializes the recurrence past survival ≈ 1/N, so
// monotonicity breakdowns in the far tail go unnoticed there. Passing
// this value to SequenceFromFirstTail reproduces that effective
// behaviour for the deterministic Eq.-(4) evaluation.
const DefaultTailEps = 1e-3

// SequenceFromFirstTail is SequenceFromFirst with an explicit tail
// tolerance: once the survival probability at the last reservation is
// at most tailEps, a recurrence breakdown no longer invalidates the
// candidate — the sequence is closed with the support bound b (bounded
// support) or extended geometrically by doubling (unbounded support),
// which perturbs the expected cost by at most O(α·t·tailEps).
// tailEps = 0 gives the strict rule.
//
// This mirrors the paper's protocol (§4.1/§5.1): the exact optimal t1
// keeps Eq. (11) increasing forever, but any perturbed t1 — including
// every point of a finite search grid — eventually breaks down; the
// paper's Monte-Carlo evaluation simply never looks that far.
func SequenceFromFirstTail(m CostModel, d dist.Distribution, t1, tailEps float64) *Sequence {
	return sequenceFromRecurrence(d, t1, tailEps, func(prev2, prev float64) float64 {
		return NextReservation(m, d, prev2, prev)
	})
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

// ConvexCost is a convex reservation-cost function G(x) for the
// Appendix-C generalization: a reservation of length x costs G(x)
// (plus β·min(x, t) for the time actually used).
type ConvexCost interface {
	// At returns G(x).
	At(x float64) float64
	// Deriv returns G'(x).
	Deriv(x float64) float64
	// Inverse returns G^{-1}(y) for y in the range of G.
	Inverse(y float64) float64
}

// AffineCost is the affine instance G(x) = αx + γ, under which the
// Appendix-C recurrence reduces exactly to Eq. (11).
type AffineCost struct {
	Alpha, Gamma float64
}

// At implements ConvexCost.
func (c AffineCost) At(x float64) float64 { return c.Alpha*x + c.Gamma }

// Deriv implements ConvexCost.
func (c AffineCost) Deriv(float64) float64 { return c.Alpha }

// Inverse implements ConvexCost.
func (c AffineCost) Inverse(y float64) float64 { return (y - c.Gamma) / c.Alpha }

// QuadraticCost is G(x) = a·x² + b·x + c (a > 0, x >= 0), a strictly
// convex cost that models platforms where long reservations are
// penalized superlinearly.
type QuadraticCost struct {
	A, B, C float64
}

// At implements ConvexCost.
func (c QuadraticCost) At(x float64) float64 { return c.A*x*x + c.B*x + c.C }

// Deriv implements ConvexCost.
func (c QuadraticCost) Deriv(x float64) float64 { return 2*c.A*x + c.B }

// Inverse implements ConvexCost. It returns the nonnegative branch.
func (c QuadraticCost) Inverse(y float64) float64 {
	disc := c.B*c.B - 4*c.A*(c.C-y)
	if disc < 0 {
		return math.NaN()
	}
	return (-c.B + math.Sqrt(disc)) / (2 * c.A)
}

// NextReservationConvex computes t_{i+1} from (t_{i-1}, t_i) under a
// convex reservation cost G (Appendix C, Eq. 37):
//
//	t_{i+1} = G^{-1}( G'(t_i)·(1-F(t_{i-1}))/f(t_i) + β·((1-F(t_i))/f(t_i) - t_i) ).
//
//repro:hotpath
func NextReservationConvex(g ConvexCost, beta float64, d dist.Distribution, tPrev, tCur float64) float64 {
	f := d.PDF(tCur)
	if !(f > 0) || math.IsInf(f, 0) {
		return math.NaN()
	}
	y := g.Deriv(tCur)*d.Survival(tPrev)/f + beta*(d.Survival(tCur)/f-tCur)
	return g.Inverse(y)
}

// SequenceFromFirstConvexTail is SequenceFromFirstTail under a convex
// reservation cost G (Proposition 3).
func SequenceFromFirstConvexTail(g ConvexCost, beta float64, d dist.Distribution, t1, tailEps float64) *Sequence {
	return sequenceFromRecurrence(d, t1, tailEps, func(prev2, prev float64) float64 {
		return NextReservationConvex(g, beta, d, prev2, prev)
	})
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
