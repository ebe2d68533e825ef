package repro

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/dist"
	"repro/internal/platform"
	"repro/internal/simulate"
	"repro/internal/strategy"
)

// Distribution is a probability law for job execution times. Use the
// constructors below (Exponential, LogNormal, ...), Empirical, or
// FitLogNormal to obtain one.
type Distribution = dist.Distribution

// CostModel is the affine reservation cost α·t1 + β·min(t1, t) + γ.
type CostModel = core.CostModel

// Sequence is a (lazily generated) strictly increasing reservation
// sequence.
type Sequence = core.Sequence

// ReservationOnly is the AWS Reserved-Instance cost model (α=1, β=γ=0).
var ReservationOnly = core.ReservationOnly

// NeuroHPC returns the HPC queue-wait cost model of the paper's §5.3
// (α=0.95, β=1, γ=1.05 hours). Costs are in hours.
func NeuroHPC() CostModel { return platform.NeuroHPC() }

// Distribution constructors (the nine laws of the paper's Table 1).
var (
	Exponential     = dist.NewExponential
	Weibull         = dist.NewWeibull
	Gamma           = dist.NewGamma
	LogNormal       = dist.NewLogNormal
	TruncatedNormal = dist.NewTruncatedNormal
	Pareto          = dist.NewPareto
	Uniform         = dist.NewUniform
	Beta            = dist.NewBeta
	BoundedPareto   = dist.NewBoundedPareto
)

// LogNormalFromMoments builds the LogNormal law with the given mean and
// standard deviation in natural units.
func LogNormalFromMoments(mean, sd float64) (Distribution, error) {
	return dist.LogNormalFromMoments(mean, sd)
}

// Empirical builds the empirical distribution of an execution-time
// trace.
func Empirical(samples []float64) (Distribution, error) {
	return dist.NewEmpirical(samples)
}

// FitLogNormal fits a LogNormal law to an execution-time trace (the
// paper's Fig.-1 pipeline).
func FitLogNormal(samples []float64) (Distribution, error) {
	return dist.FitLogNormal(samples)
}

// Strategy names accepted by Plan.
const (
	StrategyBruteForce     = "brute-force"
	StrategyRefined        = "refined-brute-force"
	StrategyMeanByMean     = "mean-by-mean"
	StrategyMeanStdev      = "mean-stdev"
	StrategyMeanDoubling   = "mean-doubling"
	StrategyMedianByMedian = "median-by-median"
	StrategyEqualTime      = "equal-time"
	StrategyEqualProb      = "equal-probability"
)

// Strategies lists the accepted strategy names.
func Strategies() []string {
	s := []string{
		StrategyBruteForce, StrategyRefined, StrategyMeanByMean,
		StrategyMeanStdev, StrategyMeanDoubling, StrategyMedianByMedian,
		StrategyEqualTime, StrategyEqualProb,
	}
	sort.Strings(s)
	return s
}

// Options tune how Plan computes a strategy. The zero value uses the
// paper's evaluation parameters with deterministic (analytic) scoring.
// All entry points (MakePlan, MakeCheckpointPlan, OptimizeProcs,
// NewPlanner) resolve missing fields through the same withDefaults, so
// the documented defaults below hold everywhere.
type Options struct {
	// GridM is the brute-force grid size (default 5000).
	GridM int
	// SamplesN is the Monte-Carlo sample count (default 1000); only
	// used when MonteCarlo is set.
	SamplesN int
	// DiscN is the discretization sample count (default 1000).
	DiscN int
	// Epsilon is the truncation quantile (default 1e-7).
	Epsilon float64
	// Seed drives Monte-Carlo scoring.
	Seed uint64
	// MonteCarlo scores brute-force candidates with the paper's
	// Eq.-(13) protocol instead of the exact Eq.-(4) value.
	MonteCarlo bool
	// PreviewLen is how many reservations Plan materializes into
	// Plan.Reservations (default 16).
	PreviewLen int
	// MaxAttempts, when positive, caps the number of reservations for
	// the DP-based strategies (equal-time / equal-probability) — the
	// resubmission limits real schedulers impose. Other strategies
	// ignore it.
	MaxAttempts int
	// Workers bounds the brute-force scan's fan-out onto the
	// internal/parallel pool. Zero means "up to GOMAXPROCS"; 1 forces
	// inline (goroutine-free) evaluation, which is what a server doing
	// request-level fan-out wants.
	Workers int
}

// withDefaults returns o with every unset field replaced by its
// documented default. This is the single place defaults live; every
// facade entry point goes through it.
func (o Options) withDefaults() Options {
	if o.GridM <= 0 {
		o.GridM = 5000
	}
	if o.SamplesN <= 0 {
		o.SamplesN = simulate.DefaultSamples
	}
	if o.DiscN <= 0 {
		o.DiscN = discretize.DefaultSamples
	}
	if o.Epsilon <= 0 {
		o.Epsilon = discretize.DefaultEpsilon
	}
	if o.PreviewLen <= 0 {
		o.PreviewLen = 16
	}
	if o.MaxAttempts < 0 {
		o.MaxAttempts = 0
	}
	if o.Workers < 0 {
		o.Workers = 0
	}
	return o
}

// Plan is a computed reservation strategy for one distribution and cost
// model. A Plan retains the distribution it was built from, so the
// evaluation methods (Simulate, Stats, CostQuantile) need no
// re-threaded state.
type Plan struct {
	// Strategy is the name it was built with.
	Strategy string
	// Reservations is a materialized prefix of the sequence (the whole
	// sequence if it is finite and short).
	Reservations []float64
	// ExpectedCost is the exact Eq.-(4) expected cost.
	ExpectedCost float64
	// NormalizedCost is ExpectedCost over the omniscient scheduler's
	// cost; 1 means as good as knowing the duration in advance.
	NormalizedCost float64

	model   CostModel
	dist    Distribution
	seq     *core.Sequence
	workers int // the defaulted Options.Workers the plan was built with
}

// MakePlan computes a reservation plan using the named strategy. It is
// NewPlanner followed by Plan.
func MakePlan(m CostModel, d Distribution, strategyName string, opts Options) (*Plan, error) {
	pl, err := NewPlanner(m, opts)
	if err != nil {
		return nil, err
	}
	return pl.Plan(d, strategyName)
}

// resolve maps a strategy name to its implementation. The receiver
// must already be defaulted via withDefaults.
func (o Options) resolve(name string) (strategy.Strategy, error) {
	mode := strategy.EvalAnalytic
	if o.MonteCarlo {
		mode = strategy.EvalMonteCarlo
	}
	bf := strategy.BruteForce{M: o.GridM, N: o.SamplesN, Mode: mode, Seed: o.Seed, Workers: o.Workers}
	switch name {
	case StrategyBruteForce, "":
		return bf, nil
	case StrategyRefined:
		return strategy.RefinedBruteForce{Coarse: bf}, nil
	case StrategyMeanByMean:
		return strategy.MeanByMean{}, nil
	case StrategyMeanStdev:
		return strategy.MeanStdev{}, nil
	case StrategyMeanDoubling:
		return strategy.MeanDoubling{}, nil
	case StrategyMedianByMedian:
		return strategy.MedianByMedian{}, nil
	case StrategyEqualTime:
		return strategy.Discretized{Scheme: 1, N: o.DiscN, Epsilon: o.Epsilon, MaxAttempts: o.MaxAttempts}, nil
	case StrategyEqualProb:
		return strategy.Discretized{Scheme: 0, N: o.DiscN, Epsilon: o.Epsilon, MaxAttempts: o.MaxAttempts}, nil
	default:
		return nil, fmt.Errorf("repro: unknown strategy %q (have %v)", name, Strategies())
	}
}

// Sequence returns the underlying (lazy) reservation sequence.
func (p *Plan) Sequence() *Sequence { return p.seq }

// Distribution returns the execution-time law the plan was built from.
func (p *Plan) Distribution() Distribution { return p.dist }

// CostModel returns the cost model the plan was built with.
func (p *Plan) CostModel() CostModel { return p.model }

// CostFor returns the total cost and the number of reservations paid
// for a job of actual duration t under this plan.
func (p *Plan) CostFor(t float64) (cost float64, attempts int, err error) {
	return p.model.RunCost(p.seq.Clone(), t)
}

// Simulate estimates the plan's expected cost over n sampled jobs (the
// paper's Monte-Carlo protocol) and returns the normalized estimate and
// its standard error. The evaluation fans out over the plan's
// Options.Workers, so Workers = 1 keeps it inline and its result
// independent of GOMAXPROCS.
func (p *Plan) Simulate(n int, seed uint64) (normalized, stderr float64, err error) {
	est, err := simulate.NormalizedCostOnSamples(p.model, p.dist, p.seq.Clone(), simulate.Samples(p.dist, n, seed), p.workers)
	if err != nil {
		return math.NaN(), math.NaN(), err
	}
	return est.Mean, est.StdErr, nil
}

// ReservedVsOnDemand reports whether this plan beats running on demand
// when reservations are priceRatio times cheaper per hour (e.g. 4 for
// the paper's AWS example).
func (p *Plan) ReservedVsOnDemand(priceRatio float64) (bool, error) {
	pr := platform.PriceRatio{Reserved: 1, OnDemand: priceRatio}
	return pr.ReservationWorthwhile(p.NormalizedCost)
}

// PlanStats are the closed-form operating statistics of a plan.
type PlanStats = core.SequenceStats

// Stats returns the plan's exact operating statistics (expected
// attempts, reserved and used time, utilization, attempt-count
// distribution).
func (p *Plan) Stats() (PlanStats, error) {
	return core.Stats(p.model, p.dist, p.seq.Clone())
}

// CostQuantile returns the p-quantile of the plan's total cost — e.g.
// CostQuantile(0.99) is the paid cost a job exceeds with probability 1%.
func (p *Plan) CostQuantile(prob float64) (float64, error) {
	return core.CostQuantile(p.model, p.dist, p.seq.Clone(), prob)
}
