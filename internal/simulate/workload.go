package simulate

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/dist"
)

// Workload is a precomputed empirical scorer over a fixed Monte-Carlo
// sample set. Building it once per (samples, seed) sorts the samples
// and keeps prefix sums of their values, after which the
// exact Eq.-(13) average of any reservation sequence costs
// O(L·log N) instead of the O(N·L) per-candidate sweep of
// CostOnSamples: for each reservation t_i a binary search yields the
// empirical survival at t_i, and the prefix sums yield Σ_j min(t_i, X_j)
// over the still-running samples — the empirical-distribution form of
// the closed summation of Eq. (4).
//
// Concretely, with samples sorted ascending, let c_i = #{j : X_j <= t_i}
// (so c_0 = 0 for t_0 = 0) and P(r) = Σ_{j<r} X_(j). Every sample still
// running before attempt i (there are N - c_{i-1} of them) pays the
// reserved cost α·t_i + γ, the N - c_i samples that outlive t_i use the
// full reservation (β·t_i), and the samples finishing inside attempt i
// use their own duration (β·(P(c_i) - P(c_{i-1}))), giving
//
//	N·Ê(S) = Σ_i (α·t_i + γ)·(N - c_{i-1})
//	       + β·( t_i·(N - c_i) + P(c_i) - P(c_{i-1}) ).
//
// This regroups the exact same IEEE-754 products as CostOnSamples by
// attempt instead of by sample, so the two agree to ~1e-14 relative
// (association order is the only difference).
//
// A Workload is immutable after construction and safe for concurrent
// use; the per-call cursor carries all iteration state.
//
//repro:hotpath
type Workload struct {
	sorted []float64 // ascending copy of the samples
	prefix []float64 // prefix[r] = Σ_{j<r} sorted[j]
}

// NewWorkload builds the scorer from a sample set (in any order). The
// input slice is copied, not retained.
func NewWorkload(samples []float64) *Workload {
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	prefix := make([]float64, len(sorted)+1)
	for i, x := range sorted {
		prefix[i+1] = prefix[i] + x
	}
	return &Workload{sorted: sorted, prefix: prefix}
}

// NewWorkloadFrom draws the deterministic (seed, n) sample set from d —
// the same set Samples returns — and builds the scorer. n <= 0 selects
// DefaultSamples.
func NewWorkloadFrom(d dist.Distribution, n int, seed uint64) *Workload {
	if n <= 0 {
		n = DefaultSamples
	}
	return NewWorkload(Samples(d, n, seed))
}

// errNoSamples is hoisted so the empty-workload check costs nothing on
// the per-candidate path.
var errNoSamples = errors.New("simulate: workload has no samples")

// An UncoveredError reports a reservation sequence that ended below the
// workload's largest sample. It wraps core.ErrUncovered and carries the
// sample bound so callers can diagnose the gap; constructing it instead
// of fmt.Errorf keeps formatting (and its allocations) off the scoring
// loop — the message is built only when Error is called.
type UncoveredError struct {
	// Max is the largest sample in the workload.
	Max float64
}

func (e *UncoveredError) Error() string {
	return fmt.Sprintf("simulate: workload (max sample %g): %v", e.Max, core.ErrUncovered)
}

// Unwrap makes errors.Is(err, core.ErrUncovered) hold.
func (e *UncoveredError) Unwrap() error { return core.ErrUncovered }

// covering returns c = #{j : X_j <= t} given that lo of the smallest
// samples are already known to be <= t. The binary search is
// hand-rolled (same loop as sort.Search) so the hot path carries no
// closure: a capturing func literal passed to sort.Search is an
// allocation the compiler cannot always elide.
func (w *Workload) covering(t float64, lo int) int {
	i, j := lo, len(w.sorted)
	for i < j {
		h := int(uint(i+j) >> 1)
		if w.sorted[h] <= t {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Cost returns the Eq.-(13) empirical mean cost of the sequence yielded
// by cur. It fails with core.ErrUncovered if the sequence ends below
// the largest sample, and propagates any cursor error (invalid
// sequence) — exactly the failure modes of CostOnSamples.
//
// budget is the admissible early abort of core.CostCursor.CostBudget
// over the empirical law: every summand of the attempt loop is
// nonnegative (α > 0, β, γ >= 0, t_i > 0, samples >= 0) and IEEE
// division by N is monotone, so total/N after any attempt is a lower
// bound on the final mean. Once it strictly exceeds budget the
// candidate is abandoned and (total/N, true, nil) is returned. A
// candidate whose exact cost is <= budget is never abandoned, so a scan
// pruning against its incumbent keeps the exact winner, ties included.
// A +Inf budget disables pruning and returns the unbudgeted mean bit
// for bit.
func (w *Workload) Cost(m core.CostModel, cur core.Cursor, budget float64) (cost float64, pruned bool, err error) {
	n := len(w.sorted)
	if n == 0 {
		return math.NaN(), false, errNoSamples
	}
	nf := float64(n)
	covered := 0 // c_{i-1}: samples finished before the current attempt
	total := 0.0
	for covered < n {
		ti, err := cur.Next()
		if err != nil {
			if errors.Is(err, core.ErrEnd) {
				return math.Inf(1), false, &UncoveredError{Max: w.sorted[n-1]}
			}
			return math.NaN(), false, err
		}
		cnt := w.covering(ti, covered)
		total += (m.Alpha*ti + m.Gamma) * float64(n-covered)
		if m.Beta != 0 {
			total += m.Beta * (ti*float64(n-cnt) + w.prefix[cnt] - w.prefix[covered])
		}
		covered = cnt
		if total/nf > budget {
			return total / nf, true, nil
		}
	}
	return total / nf, false, nil
}

// PrunesFrom reports whether Cost prunes, at its first attempt, every
// sequence whose first reservation is t1 or later against any budget
// <= budget. The test is the first attempt's fixed cost
// (α·t1 + γ)·N / N: the first attempt adds exactly that product and
// then a nonnegative β term, so it bounds the first partial mean from
// below whatever β is, and it is FP-nondecreasing in t1. A scan over an
// ascending grid whose incumbent only falls may therefore stop at the
// first point for which PrunesFrom holds.
func (w *Workload) PrunesFrom(m core.CostModel, t1, budget float64) bool {
	n := len(w.sorted)
	return n > 0 && (m.Alpha*t1+m.Gamma)*float64(n)/float64(n) > budget
}

// CostSequence is Cost over the sequence's own cursor, without a
// budget. Scoring materializes s, so s must not be in use by another
// goroutine; unlike CostOnSamples no defensive Clone is taken.
func (w *Workload) CostSequence(m core.CostModel, s *core.Sequence) (float64, error) {
	cur := s.Cursor()
	cost, _, err := w.Cost(m, &cur, math.Inf(1))
	return cost, err
}
