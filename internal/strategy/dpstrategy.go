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

// Discretize truncates and discretizes d with this strategy's
// parameters (N, Epsilon, Scheme). Exposed so callers evaluating many
// strategies or requests on one distribution can compute the discrete
// law once and feed it back through SequenceOn.
func (s Discretized) Discretize(d dist.Distribution) (*dist.Discrete, error) {
	n := s.N
	if n <= 0 {
		n = discretize.DefaultSamples
	}
	return discretize.Discretize(d, n, s.Epsilon, s.Scheme)
}

// Sequence implements Strategy.
func (s Discretized) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	dd, err := s.Discretize(d)
	if err != nil {
		return nil, err
	}
	return s.SequenceOn(m, d, dd)
}

// SequenceOn solves the discrete problem on a precomputed
// discretization dd of d (as returned by Discretize) and lifts the
// solution back to the continuous law. It is Sequence with the
// discretization step hoisted out.
func (s Discretized) SequenceOn(m core.CostModel, d dist.Distribution, dd *dist.Discrete) (*core.Sequence, error) {
	var res dp.Result
	var err error
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
		// Bounded support: make sure the lifted sequence covers b (the
		// discretization's top point can sit marginally below it only
		// through floating-point rounding of a + n·(b-a)/n).
		if last := vals[len(vals)-1]; last < hi {
			vals = append(vals, hi)
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

// DPResult exposes the underlying discrete solution (for tests and the
// experiment harness).
func (s Discretized) DPResult(m core.CostModel, d dist.Distribution) (dp.Result, error) {
	dd, err := s.Discretize(d)
	if err != nil {
		return dp.Result{}, err
	}
	return dp.Solve(dd, m)
}
