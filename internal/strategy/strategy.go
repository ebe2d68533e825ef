// Package strategy implements the reservation heuristics of §4 of the
// paper:
//
//   - BRUTE-FORCE (§4.1): a grid search over the first reservation t1 on
//     [a, min(b, A1)], expanding each candidate with the optimal
//     recurrence of Eq. (11) and scoring it by Monte Carlo (the paper's
//     protocol) or by the deterministic closed form of Eq. (4);
//   - the discretization + dynamic-programming strategy (§4.2) in its
//     EQUAL-PROBABILITY and EQUAL-TIME variants;
//   - the standard-measure heuristics (§4.3): MEAN-BY-MEAN, MEAN-STDEV,
//     MEAN-DOUBLING, MEDIAN-BY-MEDIAN;
//   - a golden-section refinement of the brute force (the "more
//     efficient search" the paper hypothesizes in §5.2).
package strategy

import (
	"math"

	"repro/internal/core"
	"repro/internal/dist"
)

// Strategy computes a reservation sequence for a distribution under a
// cost model.
type Strategy interface {
	// Name returns the paper's name for the heuristic.
	Name() string
	// Sequence returns the reservation sequence. An error means the
	// heuristic could not produce a valid sequence for this input.
	Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error)
}

// boundedTerminal wraps a raw generator formula for the simple §4.3
// heuristics: on bounded supports, any formula value that reaches,
// exceeds, or stops increasing below the bound b closes the sequence
// with a final reservation of exactly b (all mass must be covered,
// §2.2); on unbounded supports the formula is passed through.
func boundedTerminal(d dist.Distribution, formula func(i int, prefix []float64) float64) core.Generator {
	_, hi := d.Support()
	bounded := !math.IsInf(hi, 1)
	return func(i int, prefix []float64) (float64, bool) {
		if bounded && i > 0 && prefix[i-1] >= hi {
			return 0, false
		}
		v := formula(i, prefix)
		prev := 0.0
		if i > 0 {
			prev = prefix[i-1]
		}
		if bounded {
			if math.IsNaN(v) || v >= hi || v <= prev {
				return hi, true
			}
		} else if i > 0 && (math.IsNaN(v) || math.IsInf(v, 1)) {
			// Deep-tail numerical saturation (quantile at a probability
			// that rounds to 1, conditional mean past erfc underflow):
			// continue geometrically. The survival mass out there is far
			// below any evaluation tolerance.
			return 2 * prev, true
		}
		return v, true
	}
}

// MeanByMean is the MEAN-BY-MEAN heuristic: t1 = E[X], then
// t_i = E[X | X > t_{i-1}] (conditional expectation of the remaining
// interval), using the closed forms of Appendix B where available.
type MeanByMean struct{}

// Name implements Strategy.
func (MeanByMean) Name() string { return "Mean-by-Mean" }

// Sequence implements Strategy.
func (MeanByMean) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	return core.NewSequence(boundedTerminal(d, func(i int, prefix []float64) float64 {
		if i == 0 {
			return d.Mean()
		}
		return dist.CondMean(d, prefix[i-1])
	})), nil
}

// MeanStdev is the MEAN-STDEV heuristic: t_i = μ + (i-1)·σ.
type MeanStdev struct{}

// Name implements Strategy.
func (MeanStdev) Name() string { return "Mean-Stdev" }

// Sequence implements Strategy.
func (MeanStdev) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	mu := d.Mean()
	sigma := dist.StdDev(d)
	return core.NewSequence(boundedTerminal(d, func(i int, _ []float64) float64 {
		return mu + float64(i)*sigma
	})), nil
}

// MeanDoubling is the MEAN-DOUBLING heuristic: t_i = 2^{i-1}·μ.
type MeanDoubling struct{}

// Name implements Strategy.
func (MeanDoubling) Name() string { return "Mean-Doubling" }

// Sequence implements Strategy.
func (MeanDoubling) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	mu := d.Mean()
	return core.NewSequence(boundedTerminal(d, func(i int, _ []float64) float64 {
		return mu * math.Pow(2, float64(i))
	})), nil
}

// MedianByMedian is the MEDIAN-BY-MEDIAN heuristic:
// t_i = Q(1 - 1/2^i) — the median, then the median of the remaining
// tail, and so on.
type MedianByMedian struct{}

// Name implements Strategy.
func (MedianByMedian) Name() string { return "Median-by-Median" }

// Sequence implements Strategy.
func (MedianByMedian) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	return core.NewSequence(boundedTerminal(d, func(i int, _ []float64) float64 {
		return d.Quantile(1 - math.Pow(2, -float64(i+1)))
	})), nil
}

// StandardHeuristics returns the §4.3 standard-measure heuristics in
// the paper's column order.
func StandardHeuristics() []Strategy {
	return []Strategy{MeanByMean{}, MeanStdev{}, MeanDoubling{}, MedianByMedian{}}
}
