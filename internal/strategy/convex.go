package strategy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
)

// ConvexBruteForce is the brute-force procedure under a general convex
// reservation cost G (Appendix C of the paper): a grid scan over the
// first reservation t1, each candidate expanded with the generalized
// recurrence of Eq. (37) and scored by the Appendix-C expected cost.
type ConvexBruteForce struct {
	// G is the convex reservation cost.
	G core.ConvexCost
	// Beta scales the used duration (as in the affine model).
	Beta float64
	// M is the grid size (default 2000).
	M int
	// UpperFactor bounds the search interval as UpperFactor·E[X] above
	// the support's low end (the Theorem-2 bound is specific to affine
	// costs); default 10.
	UpperFactor float64
	// TailEps as in BruteForce (0 selects core.DefaultTailEps).
	TailEps float64
	// Workers bounds parallelism.
	Workers int
}

// Search scans the grid and returns the best first reservation, its
// expected cost, and the winning sequence.
func (b ConvexBruteForce) Search(d dist.Distribution) (t1, cost float64, seq *core.Sequence, err error) {
	if b.G == nil {
		return 0, 0, nil, errors.New("strategy: ConvexBruteForce needs a cost function")
	}
	if b.Beta < 0 || math.IsNaN(b.Beta) {
		return 0, 0, nil, fmt.Errorf("strategy: Beta must be nonnegative, got %g", b.Beta)
	}
	m := b.M
	if m <= 0 {
		m = 2000
	}
	uf := b.UpperFactor
	if uf <= 0 {
		uf = 10
	}
	tailEps := tailTolerance(b.TailEps)
	lo, hi := d.Support()
	upper := lo + uf*d.Mean()
	if !math.IsInf(hi, 1) {
		upper = hi
	}
	if !(upper > lo) {
		return 0, 0, nil, fmt.Errorf("strategy: degenerate convex search interval [%g, %g]", lo, upper)
	}

	// The same scan and polish as RefinedBruteForce, through a fused
	// Eq.-(37) cursor; the polish is taken only when it strictly beats
	// the grid winner.
	cur := core.NewConvexCostCursor(b.G, b.Beta, d, tailEps)
	best := scanAnalytic(cur, lo, upper, m, b.Workers, nil)
	if !best.Valid {
		return 0, 0, nil, errors.New("strategy: no valid convex candidate")
	}
	if p := polish(&cur, best.T1, (upper-lo)/float64(m), lo, upper); p.Valid && p.Cost < best.Cost {
		best = p
	}
	return best.T1, best.Cost, core.SequenceFromFirstConvexTail(b.G, b.Beta, d, best.T1, tailEps), nil
}
