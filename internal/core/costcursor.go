package core

import (
	"errors"
	"math"

	"repro/internal/dist"
)

// CostCursor is the analytic twin of simulate.Workload: a streaming
// Eq.-(4) evaluator that scores a Proposition-1 candidate (a first
// reservation t1 expanded with the Eq.-(11) recurrence) in O(L) time
// and O(1) allocations. It fuses the recurrence step with the cost
// summation so each d.Survival(t_i) — the expensive special-function
// call for Gamma/Beta-type laws — is evaluated exactly once and shared
// between the two, where the unfused path (SequenceFromFirstTail +
// ExpectedCost) evaluates it three times: once for the cost term and
// twice across the two recurrence steps that reference t_i.
//
// Construction hoists everything that does not depend on the
// candidate: β·E[X], the survival at t_0 = 0, and the support bound.
// The per-call state is entirely local, so one CostCursor is immutable
// after construction, safe for concurrent use, and reusable across any
// number of candidates — a grid scan builds one per worker block,
// mirroring the Monte-Carlo path's RecurrenceCursor reuse.
//
// Cost and CostBudget reproduce ExpectedCost over SequenceFromFirstTail
// bit for bit: the fused loop performs the same IEEE-754 operations in
// the same order, only skipping the redundant survival re-evaluations
// (which are pure and bitwise reproducible).
//
//repro:hotpath
type CostCursor struct {
	m       CostModel
	d       dist.Distribution
	tailEps float64

	betaMean float64 // β·E[X], the constant first summand of Eq. (4)
	sf0      float64 // P(X >= t_0) = Survival(0), shared by every candidate
	hi       float64
	bounded  bool
}

// NewCostCursor returns a cursor scoring candidates under the same
// tail-tolerance semantics as SequenceFromFirstTail(m, d, t1, tailEps).
// It is returned by value so callers in tight loops keep it on the
// stack.
func NewCostCursor(m CostModel, d dist.Distribution, tailEps float64) CostCursor {
	_, hi := d.Support()
	return CostCursor{
		m: m, d: d, tailEps: tailEps,
		betaMean: m.Beta * d.Mean(),
		sf0:      d.Survival(0.0),
		hi:       hi, bounded: !math.IsInf(hi, 1),
	}
}

// Cost returns the exact Eq.-(4) expected cost of the candidate with
// first reservation t1 — the same value (bitwise) as
// ExpectedCost(m, d, SequenceFromFirstTail(m, d, t1, tailEps)), with
// +Inf for an uncovered sequence and the same sequence errors.
func (c *CostCursor) Cost(t1 float64) (float64, error) {
	cost, _, err := c.CostBudget(t1, math.Inf(1))
	return cost, err
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
func (c *CostCursor) CostBudget(t1, budget float64) (cost float64, pruned bool, err error) {
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

// CostOf evaluates Eq. (4) over an arbitrary cursor — the analytic
// counterpart of simulate.Workload.Cost for sequences that do not come
// from the Eq.-(11) recurrence (heuristic strategies, explicit plans).
// No survival fusion is possible for a generic cursor, but the
// evaluation still streams: no Sequence is materialized beyond what
// cur itself retains. The result matches ExpectedCost over the same
// sequence bitwise, including +Inf for a finite sequence that leaves
// mass uncovered.
func (c *CostCursor) CostOf(cur Cursor) (float64, error) {
	sum := c.betaMean
	tPrev := 0.0
	sfPrev := c.sf0
	for {
		sf := sfPrev
		if sf <= survivalCutoff {
			return sum, nil
		}
		ti, err := cur.Next()
		if err != nil {
			if errors.Is(err, ErrEnd) {
				return math.Inf(1), nil
			}
			return math.NaN(), err
		}
		term := (c.m.Alpha*ti + c.m.Beta*tPrev + c.m.Gamma) * sf
		sum += term
		if sf < 1e-9 && term < expectedCostTol*math.Max(1, sum) {
			return sum, nil
		}
		tPrev = ti
		sfPrev = c.d.Survival(ti)
	}
}

// ConvexCostCursor is the CostCursor analogue for the Appendix-C
// generalization: candidates are expanded with the Eq.-(37) recurrence
// and scored with the convex objective (ExpectedCostConvex), fusing
// the survival evaluations the same way. It reproduces
// ExpectedCostConvex over SequenceFromFirstConvexTail bit for bit.
//
//repro:hotpath
type ConvexCostCursor struct {
	g       ConvexCost
	beta    float64
	d       dist.Distribution
	tailEps float64

	betaMean float64
	sf0      float64
	hi       float64
	bounded  bool
}

// NewConvexCostCursor returns a cursor scoring convex-cost candidates
// under the tail-tolerance semantics of SequenceFromFirstConvexTail.
func NewConvexCostCursor(g ConvexCost, beta float64, d dist.Distribution, tailEps float64) ConvexCostCursor {
	_, hi := d.Support()
	return ConvexCostCursor{
		g: g, beta: beta, d: d, tailEps: tailEps,
		betaMean: beta * d.Mean(),
		sf0:      d.Survival(0.0),
		hi:       hi, bounded: !math.IsInf(hi, 1),
	}
}

// Cost returns the exact Appendix-C expected cost of the candidate
// with first reservation t1.
func (c *ConvexCostCursor) Cost(t1 float64) (float64, error) {
	cost, _, err := c.CostBudget(t1, math.Inf(1))
	return cost, err
}

// CostBudget is Cost with the admissible early abort of
// CostCursor.CostBudget: convex-objective terms are nonnegative for
// G >= 0 on the support, so the partial sum is a lower bound and
// pruning against an incumbent preserves the exact winner.
func (c *ConvexCostCursor) CostBudget(t1, budget float64) (cost float64, pruned bool, err error) {
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
