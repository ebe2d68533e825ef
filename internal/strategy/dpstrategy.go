package strategy

import (
	"math"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/dist"
	"repro/internal/dp"
)

// Discretized is the §4.2 strategy: truncate and discretize the
// continuous distribution, solve the discrete problem optimally by
// dynamic programming (Theorem 5), and lift the resulting sequence back
// to the continuous problem. For unbounded supports the lifted sequence
// is extended past the truncation point by doubling, because a
// reservation sequence must tend to infinity (§2.2); the mass out there
// is at most ε.
type Discretized struct {
	// Scheme selects EQUAL-PROBABILITY or EQUAL-TIME (§4.2.1).
	Scheme discretize.Scheme
	// N is the number of discretization samples (paper: 1000). Zero
	// selects 1000.
	N int
	// Epsilon is the truncation quantile (paper: 1e-7). Zero selects
	// 1e-7.
	Epsilon float64
	// MaxAttempts, when positive, caps the number of reservations the
	// plan may use (dp.SolveMaxAttempts); zero means unconstrained.
	MaxAttempts int
}

// Name implements Strategy.
func (s Discretized) Name() string {
	if s.Scheme == discretize.EqualTime {
		return "Equal-time"
	}
	return "Equal-probability"
}

// Sequence implements Strategy: discretize d with this strategy's
// parameters (N, Epsilon, Scheme), solve the discrete problem, and
// lift the solution back to the continuous law.
func (s Discretized) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	n := s.N
	if n <= 0 {
		n = discretize.DefaultSamples
	}
	dd, err := discretize.Discretize(d, n, s.Epsilon, s.Scheme)
	if err != nil {
		return nil, err
	}
	var res dp.Result
	if s.MaxAttempts > 0 {
		res, err = dp.SolveMaxAttempts(dd, m, s.MaxAttempts)
	} else {
		res, err = dp.Solve(dd, m)
	}
	if err != nil {
		return nil, err
	}
	vals := res.Sequence
	_, hi := d.Support()
	if !math.IsInf(hi, 1) {
		// Bounded support: make sure the lifted sequence covers b. The
		// discretization's top point can sit marginally below it only
		// through floating-point rounding of a + n·(b-a)/n, so the last
		// reservation is raised to b rather than followed by another,
		// which would break the MaxAttempts cap.
		if last := len(vals) - 1; vals[last] < hi {
			vals[last] = hi
		}
		return core.NewExplicitSequence(vals...)
	}
	// Unbounded support: extend by doubling beyond the truncation point.
	k := len(vals)
	return core.NewSequence(func(i int, prefix []float64) (float64, bool) {
		if i < k {
			return vals[i], true
		}
		return 2 * prefix[i-1], true
	}), nil
}
