// Package online adapts the paper's framework to streams of jobs whose
// distribution is NOT known in advance — the situation a practical
// cloud-cost tool faces. The paper assumes the execution-time law is
// given (fitted offline from historical traces, §5.3); here a Learner
// starts from a prior guess, observes each completed job's exact
// duration (reservations reveal it — the job runs to completion inside
// the final slot), refits its estimate, and replans with the optimal
// dynamic program.
//
// Two estimators are provided: the raw empirical distribution (fully
// nonparametric; the DP of Theorem 5 is *exactly* optimal for it) and a
// smoothed LogNormal fit (parametric, converging faster when the truth
// is close to LogNormal, as the paper's neuroscience traces are).
// Evaluate measures the cumulative-cost regret of a learner against the
// clairvoyant planner that knows the true law from the start.
package online

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/dist"
	"repro/internal/dp"
	"repro/internal/rng"
)

// Estimator selects how the learner turns observations into a
// distribution estimate.
type Estimator int

const (
	// Empirical uses the raw empirical law of the observations.
	Empirical Estimator = iota
	// SmoothedLogNormal fits a LogNormal law to the observations.
	SmoothedLogNormal
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	if e == SmoothedLogNormal {
		return "smoothed-lognormal"
	}
	return "empirical"
}

// Learner plans reservations for a stream of jobs, refitting after each
// observation.
type Learner struct {
	model     core.CostModel
	prior     dist.Distribution
	estimator Estimator
	minObs    int
	discN     int
	window    int

	obs       []float64
	plan      *core.Sequence
	planDirty bool
}

// Config tunes a Learner.
type Config struct {
	// Estimator selects Empirical (default) or SmoothedLogNormal.
	Estimator Estimator
	// MinObservations is how many completed jobs are required before
	// the learner trusts its own estimate over the prior (default 5).
	MinObservations int
	// DiscN is the discretization size used for planning (default 200).
	DiscN int
	// Window, when positive, keeps only the most recent Window
	// observations — a sliding window that tracks non-stationary job
	// streams (e.g. an application whose inputs drift over time). Zero
	// keeps everything.
	Window int
}

// NewLearner builds a learner for the given cost model and prior guess
// of the execution-time law. The prior may be crude — it only steers
// the first few jobs.
func NewLearner(m core.CostModel, prior dist.Distribution, cfg Config) (*Learner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if prior == nil {
		return nil, errors.New("online: a prior distribution is required")
	}
	if cfg.MinObservations <= 0 {
		cfg.MinObservations = 5
	}
	if cfg.DiscN <= 0 {
		cfg.DiscN = 200
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("online: window must be nonnegative, got %d", cfg.Window)
	}
	return &Learner{
		model:     m,
		prior:     prior,
		estimator: cfg.Estimator,
		minObs:    cfg.MinObservations,
		discN:     cfg.DiscN,
		window:    cfg.Window,
		planDirty: true,
	}, nil
}

// Estimate returns the learner's current distribution estimate.
func (l *Learner) Estimate() (dist.Distribution, error) {
	if len(l.obs) < l.minObs {
		return l.prior, nil
	}
	switch l.estimator {
	case SmoothedLogNormal:
		d, err := dist.FitLogNormal(l.obs)
		if err != nil {
			// Degenerate observations (all equal): fall back to the
			// empirical law.
			return dist.NewEmpirical(l.obs)
		}
		return d, nil
	default:
		return dist.NewEmpirical(l.obs)
	}
}

// NextSequence returns the reservation sequence to use for the next
// job, replanning if new observations arrived.
func (l *Learner) NextSequence() (*core.Sequence, error) {
	if !l.planDirty && l.plan != nil {
		return l.plan.Clone(), nil
	}
	est, err := l.Estimate()
	if err != nil {
		return nil, err
	}
	seq, err := planFor(l.model, est, l.discN)
	if err != nil {
		return nil, fmt.Errorf("online: planning failed: %w", err)
	}
	l.plan = seq
	l.planDirty = false
	return seq.Clone(), nil
}

// Observe records a completed job's exact duration.
func (l *Learner) Observe(duration float64) error {
	if !(duration > 0) || math.IsInf(duration, 0) {
		return fmt.Errorf("online: observed duration must be positive and finite, got %g", duration)
	}
	l.obs = append(l.obs, duration)
	if l.window > 0 && len(l.obs) > l.window {
		l.obs = l.obs[len(l.obs)-l.window:]
	}
	l.planDirty = true
	return nil
}

// planFor computes the optimal DP plan for a distribution estimate and
// lifts it with a doubling tail so that durations beyond the estimate's
// largest value (which the empirical law cannot foresee) stay covered.
func planFor(m core.CostModel, d dist.Distribution, discN int) (*core.Sequence, error) {
	var dd *dist.Discrete
	switch t := d.(type) {
	case *dist.Discrete:
		dd = t
	default:
		var err error
		dd, err = discretize.Discretize(d, discN, 1e-6, discretize.EqualProbability)
		if err != nil {
			return nil, err
		}
	}
	res, err := dp.Solve(dd, m)
	if err != nil {
		return nil, err
	}
	vals := res.Sequence
	k := len(vals)
	return core.NewSequence(func(i int, prefix []float64) (float64, bool) {
		if i < k {
			return vals[i], true
		}
		return 2 * prefix[i-1], true
	}), nil
}

// RunResult is the outcome of one learner step in Evaluate.
type RunResult struct {
	// Duration is the job's true execution time.
	Duration float64
	// Cost is what the learner's plan paid.
	Cost float64
	// OracleCost is what the clairvoyant plan paid on the same job.
	OracleCost float64
}

// Evaluation summarizes a learner run.
type Evaluation struct {
	// Runs is the per-job log.
	Runs []RunResult
	// TotalCost and OracleTotal accumulate the per-job costs.
	TotalCost, OracleTotal float64
	// Regret = TotalCost - OracleTotal.
	Regret float64
	// TailRatio is mean(learner)/mean(oracle) over the final quarter of
	// the stream — the converged efficiency.
	TailRatio float64
}

// Evaluate runs a learner over n jobs sampled from the true law and
// compares it to the clairvoyant planner that knows the law upfront.
func Evaluate(l *Learner, truth dist.Distribution, n int, seed uint64) (Evaluation, error) {
	if n <= 0 {
		return Evaluation{}, errors.New("online: need at least one job")
	}
	oracle, err := planFor(l.model, truth, l.discN)
	if err != nil {
		return Evaluation{}, err
	}
	r := rng.New(seed)
	ev := Evaluation{Runs: make([]RunResult, 0, n)}
	for i := 0; i < n; i++ {
		t := dist.Sample(truth, r)
		seq, err := l.NextSequence()
		if err != nil {
			return Evaluation{}, err
		}
		cost, _, err := l.model.RunCost(seq, t)
		if err != nil {
			return Evaluation{}, fmt.Errorf("online: job %d (t=%g): %w", i, t, err)
		}
		oCost, _, err := l.model.RunCost(oracle.Clone(), t)
		if err != nil {
			return Evaluation{}, fmt.Errorf("online: oracle job %d: %w", i, err)
		}
		ev.Runs = append(ev.Runs, RunResult{Duration: t, Cost: cost, OracleCost: oCost})
		ev.TotalCost += cost
		ev.OracleTotal += oCost
		if err := l.Observe(t); err != nil {
			return Evaluation{}, err
		}
	}
	ev.Regret = ev.TotalCost - ev.OracleTotal
	tail := ev.Runs[len(ev.Runs)*3/4:]
	var lc, oc float64
	for _, rr := range tail {
		lc += rr.Cost
		oc += rr.OracleCost
	}
	if oc > 0 {
		ev.TailRatio = lc / oc
	}
	return ev, nil
}
