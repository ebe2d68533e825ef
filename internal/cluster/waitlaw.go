package cluster

import (
	"fmt"
	"math"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Fig2Workload describes the synthetic single-queue workload of the
// Fig.-2 wait-law derivation.
type Fig2Workload struct {
	// Jobs is the number of submissions.
	Jobs int
	// MaxJobNodes bounds the per-job width (uniform in
	// [1, MaxJobNodes]).
	MaxJobNodes int
	// ArrivalRate is the Poisson arrival rate (jobs per time unit).
	ArrivalRate float64
	// RequestedMin and RequestedMax bound the requested walltimes
	// (log-uniform between them, mimicking the order-of-magnitude
	// spread of real logs).
	RequestedMin, RequestedMax float64
	// UseFraction in (0, 1]: each job's actual runtime is
	// requested · Uniform(UseFraction, 1) (users over-estimate).
	UseFraction float64
	// Seed drives the generator.
	Seed uint64
}

// GenerateFig2Jobs synthesizes the workload as single-attempt jobs of
// the default tenant: each job's policy is its one requested walltime.
func GenerateFig2Jobs(wl Fig2Workload) ([]Job, error) {
	if wl.Jobs < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 job, got %d", wl.Jobs)
	}
	if wl.MaxJobNodes < 1 {
		return nil, fmt.Errorf("cluster: MaxJobNodes must be >= 1, got %d", wl.MaxJobNodes)
	}
	if !(wl.ArrivalRate > 0) {
		return nil, fmt.Errorf("cluster: arrival rate must be positive, got %g", wl.ArrivalRate)
	}
	if !(wl.RequestedMin > 0) || !(wl.RequestedMax > wl.RequestedMin) {
		return nil, fmt.Errorf("cluster: invalid requested range [%g, %g]", wl.RequestedMin, wl.RequestedMax)
	}
	if !(wl.UseFraction > 0) || wl.UseFraction > 1 {
		return nil, fmt.Errorf("cluster: UseFraction must be in (0, 1], got %g", wl.UseFraction)
	}
	r := rng.New(wl.Seed)
	jobs := make([]Job, wl.Jobs)
	t := 0.0
	logMin, logMax := math.Log(wl.RequestedMin), math.Log(wl.RequestedMax)
	for i := range jobs {
		t += r.ExpFloat64() / wl.ArrivalRate
		req := math.Exp(logMin + (logMax-logMin)*r.Float64())
		use := wl.UseFraction + (1-wl.UseFraction)*r.Float64()
		jobs[i] = Job{
			ID:      i,
			Arrival: t,
			Width:   1 + int(r.Uint64n(uint64(wl.MaxJobNodes))),
			Actual:  req * use,
			Policy:  []float64{req},
		}
	}
	return jobs, nil
}

// DeriveWaitTimeModel runs the whole Fig.-2 derivation: generate the
// workload, simulate it under EASY backfilling on nodes unit-capacity
// nodes, bucket the waits into groups by requested walltime, and fit
// the affine law — which feeds platform.NeuroHPCFromWaitModel exactly
// like the synthetic log's fit does.
func DeriveWaitTimeModel(nodes int, wl Fig2Workload, groups int) (trace.WaitTimeModel, []trace.WaitGroup, Stats, error) {
	if nodes < 1 {
		return trace.WaitTimeModel{}, nil, Stats{}, fmt.Errorf("cluster: need at least 1 node, got %d", nodes)
	}
	jobs, err := GenerateFig2Jobs(wl)
	if err != nil {
		return trace.WaitTimeModel{}, nil, Stats{}, err
	}
	cfg := Config{Nodes: UnitNodes(nodes), Backfill: BackfillEASY}
	results, err := Simulate(cfg, jobs)
	if err != nil {
		return trace.WaitTimeModel{}, nil, Stats{}, err
	}
	prof, err := WaitProfile(results, groups)
	if err != nil {
		return trace.WaitTimeModel{}, nil, Stats{}, err
	}
	model, err := trace.FitWaitTimeModel(prof)
	if err != nil {
		return trace.WaitTimeModel{}, nil, Stats{}, err
	}
	return model, prof, Summarize(cfg, results), nil
}
