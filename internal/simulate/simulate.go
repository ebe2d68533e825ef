// Package simulate implements the Monte-Carlo evaluation protocol of
// §5.1 of the paper: the expected cost of a reservation sequence is
// estimated by drawing N execution times from the distribution and
// averaging the per-run cost of Eq. (2) (Eq. 13), optionally normalized
// by the omniscient scheduler's expected cost. Evaluation is
// parallelized over worker goroutines with per-worker RNG streams so
// results are reproducible for a given seed regardless of GOMAXPROCS.
package simulate

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// DefaultSamples is the paper's N = 1000 Monte-Carlo sample count.
const DefaultSamples = 1000

// Estimate is a Monte-Carlo estimate of an expected cost.
type Estimate struct {
	// Mean is the sample mean of the per-run costs (Eq. 13).
	Mean float64
	// StdErr is the standard error of Mean.
	StdErr float64
	// N is the number of samples.
	N int
	// MaxAttempts is the largest number of reservations any sampled run
	// needed.
	MaxAttempts int
}

// Samples draws n execution times from d using the given seed. The
// samples are drawn on a single stream so the same (seed, n) always
// yields the same workload, which lets every candidate strategy be
// scored on a common sample set (variance-reduced comparison).
func Samples(d dist.Distribution, n int, seed uint64) []float64 {
	return dist.SampleN(d, rng.New(seed), n)
}

// CostOnSamples evaluates the Eq.-(13) estimate of a sequence's
// expected cost over a fixed workload. The sequence is cloned per
// worker; its generator must be pure. An error from any run (invalid
// sequence, uncovered duration) invalidates the whole estimate.
func CostOnSamples(m core.CostModel, s *core.Sequence, samples []float64, workers int) (Estimate, error) {
	n := len(samples)
	if n == 0 {
		return Estimate{}, errors.New("simulate: no samples")
	}
	if workers <= 0 || workers > n {
		workers = parallel.Workers(n)
	}
	// Workers write per-sample costs; the sums below run in sample
	// order, so every worker count yields the Workers: 1 estimate bit
	// for bit.
	costs := make([]float64, n)
	type partial struct {
		maxAttempts int
		err         error
	}
	parts := make([]partial, workers)
	parallel.ForEachBlock(n, workers, func(w, lo, hi int) {
		sw := s.Clone()
		p := &parts[w]
		for i := lo; i < hi; i++ {
			c, k, err := m.RunCost(sw, samples[i])
			if err != nil {
				p.err = fmt.Errorf("simulate: run %d (t=%g): %w", i, samples[i], err)
				return
			}
			costs[i] = c
			p.maxAttempts = max(p.maxAttempts, k)
		}
	})
	maxK := 0
	for _, p := range parts {
		// Blocks ascend with w, so the first error is the
		// lowest-index failure.
		if p.err != nil {
			return Estimate{}, p.err
		}
		maxK = max(maxK, p.maxAttempts)
	}
	var sum, sum2 float64
	for _, c := range costs {
		sum += c
		sum2 += c * c
	}
	mean := sum / float64(n)
	varc := sum2/float64(n) - mean*mean
	if varc < 0 {
		varc = 0
	}
	return Estimate{
		Mean:        mean,
		StdErr:      math.Sqrt(varc / float64(n)),
		N:           n,
		MaxAttempts: maxK,
	}, nil
}

// NormalizedCostOnSamples is CostOnSamples divided by the omniscient
// expected cost (§5.1): the returned estimate's Mean and StdErr are
// both scaled.
func NormalizedCostOnSamples(m core.CostModel, d dist.Distribution, s *core.Sequence, samples []float64, workers int) (Estimate, error) {
	e, err := CostOnSamples(m, s, samples, workers)
	if err != nil {
		return Estimate{}, err
	}
	o := m.OmniscientCost(d)
	e.Mean /= o
	e.StdErr /= o
	return e, nil
}
