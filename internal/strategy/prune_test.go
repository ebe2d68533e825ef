package strategy

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// TestAnalyticSearchPruningDeterminism is the acceptance property of
// the analytic fast path: the budget-pruned Search must return the
// winner of an exhaustive serial scan over Curve's exact costs bit for
// bit (same t1, same cost, same sequence) at any worker count, across
// distributions and cost models.
func TestAnalyticSearchPruningDeterminism(t *testing.T) {
	models := []core.CostModel{
		core.ReservationOnly,
		{Alpha: 0.95, Beta: 1, Gamma: 1.05},
	}
	dists := []dist.Distribution{
		dist.MustLogNormal(3, 0.5),
		dist.MustExponential(1),
		dist.MustGamma(2, 2),
		dist.MustWeibull(1, 0.5),
		dist.MustUniform(10, 20),
	}
	for _, m := range models {
		for _, d := range dists {
			ref, refSeq, errRef := curveWinner(BruteForce{M: 400, Mode: EvalAnalytic, Workers: 1}, m, d)
			for _, workers := range []int{1, 3, 8} {
				res, err := BruteForce{M: 400, Mode: EvalAnalytic, Workers: workers}.Search(m, d, nil)
				checkSameWinner(t, fmt.Sprintf("%s %v workers=%d", d.Name(), m, workers), res, err, res.Sequence, err, ref, refSeq, errRef)
			}
		}
	}
}

// TestConvexSearchWorkersDeterminism: the convex scan's block
// reduction must return the same refined winner at any worker count.
func TestConvexSearchWorkersDeterminism(t *testing.T) {
	g := core.QuadraticCost{A: 0.1, B: 1, C: 0.5}
	d := dist.MustLogNormal(1, 0.5)
	var refT1, refCost float64
	for i, workers := range []int{1, 3, 8} {
		b := ConvexBruteForce{G: g, Beta: 1, M: 300, Workers: workers}
		t1, cost, seq, err := b.Search(d)
		if err != nil {
			t.Fatal(err)
		}
		if seq == nil {
			t.Fatal("nil sequence")
		}
		if i == 0 {
			refT1, refCost = t1, cost
			continue
		}
		if t1 != refT1 || cost != refCost { //lint:ignore floatcmp winner must be bit-identical
			t.Errorf("workers=%d: (%.17g, %.17g) != (%.17g, %.17g)", workers, t1, cost, refT1, refCost)
		}
	}
}
