package core

import (
	"math"

	"repro/internal/dist"
)

// CostCursor is the analytic twin of simulate.Workload: a streaming
// evaluator that scores a Proposition-1 candidate (a first reservation
// t1 expanded with the Eq.-(11) recurrence, or Eq. (37) under a convex
// cost) in O(L) time and O(1) allocations. It fuses the recurrence step
// with the cost summation so each d.Survival(t_i) — the expensive
// special-function call for Gamma/Beta-type laws — is evaluated exactly
// once and shared between the two, where the unfused path
// (SequenceFromFirstTail + ExpectedCost) evaluates it three times: once
// for the cost term and twice across the two recurrence steps that
// reference t_i.
//
// Construction hoists everything that does not depend on the
// candidate: β·E[X], the survival at t_0 = 0, and the support bound.
// The per-call state is entirely local, so one CostCursor is immutable
// after construction, safe for concurrent use, and reusable across any
// number of candidates — a grid scan builds one per worker block,
// mirroring the Monte-Carlo path's RecurrenceCursor reuse.
//
// Cost and CostBudget reproduce ExpectedCost over SequenceFromFirstTail
// (and, from NewConvexCostCursor, the Appendix-C objective over
// SequenceFromFirstConvexTail) bit for bit: the fused loop performs the
// same IEEE-754 operations in the same order, only skipping the
// redundant survival re-evaluations (which are pure and bitwise
// reproducible).
//
//repro:hotpath
type CostCursor struct {
	w        walk
	betaMean float64 // β·E[X], the constant first summand of Eq. (4)
	sf0      float64 // P(X >= t_0) = Survival(0), shared by every candidate
}

// NewCostCursor returns a cursor scoring candidates under the same
// tail-tolerance semantics as SequenceFromFirstTail(m, d, t1, tailEps).
// It is returned by value so callers in tight loops keep it on the
// stack.
func NewCostCursor(m CostModel, d dist.Distribution, tailEps float64) CostCursor {
	return CostCursor{w: newWalk(affine(m), d, tailEps), betaMean: m.Beta * d.Mean(), sf0: d.Survival(0)}
}

// NewConvexCostCursor returns a cursor scoring candidates under a
// convex reservation cost G (Appendix C): each candidate is expanded
// as SequenceFromFirstConvexTail(g, beta, d, t1, tailEps) and scored
// with the objective
//
//	E(S) = β·E[X] + Σ_{i>=0} (G(t_{i+1}) + β·t_i)·P(X >= t_i),
//
// which reduces to Eq. (4) when G is affine. Its terms are nonnegative
// for G >= 0 on the support, so CostBudget's pruning argument holds
// term for term.
func NewConvexCostCursor(g ConvexCost, beta float64, d dist.Distribution, tailEps float64) CostCursor {
	return CostCursor{w: newWalk(rule{beta: beta, g: g}, d, tailEps), betaMean: beta * d.Mean(), sf0: d.Survival(0)}
}

// PrunesFrom reports whether CostBudget prunes, at its first term,
// every candidate t1' >= t1 against any budget <= budget. For an affine
// cursor the first partial sum β·E[X] + (α·t_1 + γ)·S(0) is
// FP-nondecreasing in t1 (t_1 is t1 clamped to b, α > 0, S(0) > 0), so
// once it strictly exceeds budget every later point of an ascending
// grid is pruned too, and a scan whose incumbent only falls may stop
// there. It never holds for a convex cursor, whose G need not be
// monotone, nor when S(0) is small enough for CostBudget's truncation
// rule to end a candidate at its first term.
func (c *CostCursor) PrunesFrom(t1, budget float64) bool {
	w := &c.w
	if w.g != nil || !(c.sf0 >= 1e-9) {
		return false
	}
	ti, err := w.first(t1)
	return err == nil && c.betaMean+w.affineTerm(ti, 0, c.sf0) > budget
}

// CostBudget is Cost with an admissible early abort: every Eq.-(4)
// term is nonnegative (α > 0, β, γ >= 0, t_i > 0, survival >= 0), so
// the running partial sum is a lower bound on the final cost. As soon
// as the partial sum strictly exceeds budget the candidate is
// abandoned and (partialSum, true, nil) is returned: the true cost is
// >= the returned partial sum > budget, so a candidate competing
// against an incumbent of cost <= budget can never win. A candidate
// whose exact cost is <= budget is never aborted (its partial sums
// never exceed its final cost), so pruning with budget = "best cost so
// far" preserves the exact winner of a scan, ties included. A +Inf
// budget disables pruning.
//
// After an abort the cursor is immediately reusable — the next call
// starts a fresh candidate; no Reset is needed.
//
// The recurrence step is walk.next written out in the loop, so the
// kernel pays no call per step (next is too large to inline); the
// parity tests against the earlier implementations pin both copies.
func (c *CostCursor) CostBudget(t1, budget float64) (cost float64, pruned bool, err error) {
	w := &c.w
	sum := c.betaMean
	// The cutoff check precedes generating t_1, as in ExpectedCost.
	sf := c.sf0
	if sf <= survivalCutoff {
		return sum, false, nil
	}
	ti, err := w.first(t1)
	if err != nil {
		return math.NaN(), false, err
	}
	// Iteration i scores t_{i-1} (ti) after t_{i-2} (tPrev, survival
	// sf), then generates t_i; S(t_{i-1}) is evaluated once and serves
	// both that step and the next iteration's term.
	tPrev, sfPrev := 0.0, 0.0
	for i := 1; ; i++ {
		var term float64
		if w.g == nil {
			term = w.affineTerm(ti, tPrev, sf)
		} else {
			term = (w.g.At(ti) + w.beta*tPrev) * sf
		}
		sum += term
		// Early truncation once both the survival and the current term
		// are negligible (ExpectedCost's exact stopping rule).
		if sf < 1e-9 && term < expectedCostTol*math.Max(1, sum) {
			return sum, false, nil
		}
		if sum > budget {
			return sum, true, nil
		}
		tPrev, sfPrev = ti, sf
		sf = w.d.Survival(tPrev)
		if sf <= survivalCutoff {
			return sum, false, nil
		}
		// Generate t_i lazily — exactly where Sequence.At would — so
		// errors and the uncovered +Inf surface at the same iteration
		// as ExpectedCost over the materialized sequence.
		if i >= MaxSequenceLen {
			return math.NaN(), false, ErrTooLong
		}
		if w.bounded && tPrev >= w.hi {
			// Support covered, sequence complete (ErrEnd) — but mass
			// remains above the cutoff: uncovered, infinite cost.
			return math.Inf(1), false, nil
		}
		ti = math.NaN()
		if f := w.d.PDF(tPrev); f > 0 && !math.IsInf(f, 0) {
			if w.g == nil {
				ti = sfPrev/f + w.beta/w.alpha*(sf/f-tPrev) - w.gamma/w.alpha
			} else {
				ti = w.g.Inverse(w.g.Deriv(tPrev)*sfPrev/f + w.beta*(sf/f-tPrev))
			}
		}
		if ti > tPrev {
			if w.bounded && ti >= w.hi {
				ti = w.hi
			}
		} else if sf <= w.tailEps {
			if w.bounded {
				ti = w.hi
			} else {
				ti = 2 * tPrev
			}
		}
		if math.IsNaN(ti) || ti <= tPrev {
			return math.NaN(), false, ErrNonIncreasing
		}
	}
}
