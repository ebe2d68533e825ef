package dp

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
)

// SolveBruteForce computes the optimal expected cost by enumerating
// every increasing reservation subset that ends at v_n. It is
// exponential (O(2^{n-1})) and is the test oracle for Solve; n is
// capped at 20.
func SolveBruteForce(d *dist.Discrete, m core.CostModel) (Result, error) {
	n := d.Len()
	if n > 20 {
		return Result{}, errors.New("dp: brute-force oracle capped at n=20")
	}
	if n == 0 {
		return Result{}, errors.New("dp: empty distribution")
	}
	vals := d.Values()
	raw := d.Probs()
	total := d.Total()
	probs := make([]float64, n)
	for i := range raw {
		probs[i] = raw[i] / total
	}

	best := Result{ExpectedCost: math.Inf(1)}
	// Every subset of {0..n-2} union {n-1}.
	for mask := 0; mask < 1<<(n-1); mask++ {
		var seq []float64
		for b := 0; b < n-1; b++ {
			if mask&(1<<b) != 0 {
				seq = append(seq, vals[b])
			}
		}
		seq = append(seq, vals[n-1])
		cost := expectedCostDiscrete(m, vals, probs, seq)
		if cost < best.ExpectedCost {
			best = Result{Sequence: append([]float64(nil), seq...), ExpectedCost: cost}
		}
	}
	return best, nil
}

// expectedCostDiscrete evaluates Eq. (2)/(3) exactly for a discrete law
// and an explicit covering sequence.
func expectedCostDiscrete(m core.CostModel, vals, probs, seq []float64) float64 {
	var e float64
	for i, v := range vals {
		// Cost of running a job of duration v under seq.
		var c float64
		for _, t := range seq {
			if v <= t {
				c += m.AttemptCost(t, v)
				break
			}
			c += m.AttemptCost(t, t)
		}
		e += probs[i] * c
	}
	return e
}
