package core

import (
	"math"

	"repro/internal/dist"
)

// DefaultTailEps is the tail tolerance matching the paper's evaluation
// protocol: with N = 1000 Monte-Carlo samples, the paper's brute force
// never materializes the recurrence past survival ≈ 1/N, so
// monotonicity breakdowns in the far tail go unnoticed there. Passing
// this value to SequenceFromFirstTail reproduces that effective
// behaviour for the deterministic Eq.-(4) evaluation.
const DefaultTailEps = 1e-3

// rule is the successor formula of a Proposition-1 sequence: Eq. (11)
// of Theorem 3 under the affine cost (α, β, γ) when g is nil,
//
//	t_{i+1} = (1-F(t_{i-1}))/f(t_i) + (β/α)·((1-F(t_i))/f(t_i) - t_i) - γ/α,
//
// and Eq. (37) of Appendix C under a convex reservation cost G,
//
//	t_{i+1} = G^{-1}( G'(t_i)·(1-F(t_{i-1}))/f(t_i) + β·((1-F(t_i))/f(t_i) - t_i) ).
//
//repro:hotpath
type rule struct {
	alpha, beta, gamma float64
	g                  ConvexCost
}

// affine is the Eq.-(11) rule of the cost model m.
func affine(m CostModel) rule { return rule{alpha: m.Alpha, beta: m.Beta, gamma: m.Gamma} }

// succ returns t_{i+1} for t = t_i with density f > 0, sf = S(t_i) and
// sfPrev = S(t_{i-1}).
func (r *rule) succ(t, f, sf, sfPrev float64) float64 {
	if r.g == nil {
		return sfPrev/f + r.beta/r.alpha*(sf/f-t) - r.gamma/r.alpha
	}
	return r.g.Inverse(r.g.Deriv(t)*sfPrev/f + r.beta*(sf/f-t))
}

// affineTerm is the Eq.-(4) summand (α·t + β·tPrev + γ)·sf of
// reservation t after tPrev, with sf the survival at tPrev.
func (r *rule) affineTerm(t, tPrev, sf float64) float64 {
	return (r.alpha*t + r.beta*tPrev + r.gamma) * sf
}

// walk is the whole Proposition-1 expansion rule — the successor of
// rule plus the stopping and validity rules — shared by the lazy
// Sequence, RecurrenceCursor and CostCursor:
//
//   - the sequence must stay strictly increasing from t_0 = 0;
//   - on bounded support [a, b] it closes with b as soon as the
//     recurrence reaches or exceeds b (the F(t_i) = 1 stopping rule);
//   - once S(t_i) <= tailEps, a breakdown no longer invalidates the
//     candidate: the sequence closes with b (bounded support) or
//     doubles (unbounded support), which perturbs the expected cost by
//     at most O(α·t·tailEps).
//
//repro:hotpath
type walk struct {
	rule
	d       dist.Distribution
	tailEps float64
	hi      float64
	bounded bool
}

func newWalk(r rule, d dist.Distribution, tailEps float64) walk {
	_, hi := d.Support()
	return walk{rule: r, d: d, tailEps: tailEps, hi: hi, bounded: !math.IsInf(hi, 1)}
}

// first returns t_1: the candidate, clamped to b on bounded support.
// A t_1 that is not positive does not increase from t_0 = 0.
func (w *walk) first(t1 float64) (float64, error) {
	if w.bounded && t1 >= w.hi {
		t1 = w.hi
	}
	if !(t1 > 0) {
		return math.NaN(), ErrNonIncreasing
	}
	return t1, nil
}

// next returns t_{i+1} from t = t_i, f = f(t_i), sf = S(t_i) and
// sfPrev = S(t_{i-1}); callers take sf and f from one
// d.SurvivalPDF(t_i). It reports ErrEnd once t has reached b and
// ErrNonIncreasing on a breakdown above the tail tolerance (including
// a vanishing density at t, where Eq. (11) is undefined).
func (w *walk) next(t, f, sf, sfPrev float64) (float64, error) {
	if w.bounded && t >= w.hi {
		return math.NaN(), ErrEnd
	}
	v := math.NaN()
	if f > 0 && !math.IsInf(f, 0) {
		v = w.succ(t, f, sf, sfPrev)
	}
	if v > t {
		if w.bounded && v >= w.hi {
			v = w.hi
		}
	} else if sf <= w.tailEps {
		if w.bounded {
			v = w.hi
		} else {
			v = 2 * t
		}
	}
	if math.IsNaN(v) || v <= t {
		return math.NaN(), ErrNonIncreasing
	}
	return v, nil
}

// walkSequence returns the lazy Sequence of w from t1. Its generator
// stays pure (Clone shares it), so each step evaluates what it needs
// from the prefix (t_0 = 0): one SurvivalPDF at t_i and one Survival
// at t_{i-1}.
func walkSequence(w walk, t1 float64) *Sequence {
	return NewSequence(func(i int, prefix []float64) (float64, bool) {
		var v float64
		var err error
		if i == 0 {
			v, err = w.first(t1)
		} else {
			tPrev := 0.0
			if i >= 2 {
				tPrev = prefix[i-2]
			}
			t := prefix[i-1]
			sf, f := w.d.SurvivalPDF(t)
			v, err = w.next(t, f, sf, w.d.Survival(tPrev))
		}
		return v, err != ErrEnd // NaN on ErrNonIncreasing: At reports it
	})
}

// SequenceFromFirstTail builds the reservation sequence characterized
// by Proposition 1: the given first reservation t1 followed by the
// Eq.-(11) recurrence, under the validity, bounded-support and tail
// rules of walk. tailEps = 0 gives the paper's strict rule: candidates
// whose recurrence breaks monotonicity report ErrNonIncreasing through
// the sequence methods, and the brute-force procedure (§4.1) discards
// them.
//
// A positive tailEps mirrors the paper's protocol (§4.1/§5.1): the
// exact optimal t1 keeps Eq. (11) increasing forever, but any perturbed
// t1 — including every point of a finite search grid — eventually
// breaks down; the paper's Monte-Carlo evaluation simply never looks
// that far.
func SequenceFromFirstTail(m CostModel, d dist.Distribution, t1, tailEps float64) *Sequence {
	return walkSequence(newWalk(affine(m), d, tailEps), t1)
}

// SequenceFromFirstConvexTail is SequenceFromFirstTail under a convex
// reservation cost G (Proposition 3, Eq. 37).
func SequenceFromFirstConvexTail(g ConvexCost, beta float64, d dist.Distribution, t1, tailEps float64) *Sequence {
	return walkSequence(newWalk(rule{beta: beta, g: g}, d, tailEps), t1)
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
