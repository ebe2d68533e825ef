package cluster

import (
	"math"

	"repro/internal/trace"
)

// Stats summarizes a cluster simulation. Rejected results count
// towards Jobs and Rejected only; every other aggregate is over the
// admitted jobs, and an empty or all-rejected result set yields zero
// statistics rather than NaNs.
type Stats struct {
	// Jobs is the number of results summarized (admitted + rejected).
	Jobs int
	// Rejected is the number of jobs that were never admitted.
	Rejected int
	// MeanWait is the average wait over all admitted jobs.
	MeanWait float64
	// MaxWait is the largest wait among admitted jobs.
	MaxWait float64
	// Backfilled is the number of jobs whose final attempt jumped the
	// queue.
	Backfilled int
	// Killed is the number of jobs whose policy ended before covering
	// their runtime.
	Killed int
	// Utilization is NodeSeconds — killed and preempted attempts
	// included — over capacity times the [first arrival, last end]
	// makespan.
	Utilization float64
	// Completed is the number of jobs whose final attempt finished
	// within its reservation (not killed, not rejected).
	Completed int
	// Preempted is the number of jobs evicted at least once.
	Preempted int
	// MeanAttempts is the average number of submissions per admitted
	// job.
	MeanAttempts float64
	// MeanCost is the average net budget charge per admitted job.
	MeanCost float64
	// WaitP50..WaitP999 are quantiles of the admitted jobs' total
	// waits, estimated by a mergeable sketch with relative error
	// trace.DefaultSketchAlpha (the extremes p=0 and p=1 are exact) —
	// O(1) memory however many jobs stream through.
	WaitP50, WaitP95, WaitP99, WaitP999 float64
}

// StatsAccumulator folds Results into cluster Stats one at a time in
// O(1) memory per job: exact counters, sums and extremes, plus a
// quantile sketch for the wait distribution. It is the standard
// ResultSink. Adding results in a fixed order is deterministic (the
// float sums follow that order). Merge combines independently filled
// accumulators with integer adds, one float add per sum and
// math.Min/Max (in a fixed order for bit-stable float sums; the sketch
// itself merges commutatively), which is how sweeps combine
// replicates.
type StatsAccumulator struct {
	jobs       int
	rejected   int
	admitted   int
	backfilled int
	killed     int
	completed  int
	preempted  int
	waitSum    float64
	maxWait    float64
	tMin, tMax float64
	attempts   float64
	cost       float64
	nodeSecs   float64
	waits      *trace.QuantileSketch
}

// NewStatsAccumulator returns an empty accumulator.
func NewStatsAccumulator() *StatsAccumulator {
	return &StatsAccumulator{
		tMin:  math.Inf(1),
		waits: trace.NewDefaultSketch(),
	}
}

// Add folds one result in. The arithmetic follows Add order, matching
// the buffered Summarize loop when results arrive in ID order.
func (a *StatsAccumulator) Add(r Result) {
	a.jobs++
	if r.Rejected {
		a.rejected++
		return
	}
	a.admitted++
	a.waitSum += r.Wait
	if r.Wait > a.maxWait {
		a.maxWait = r.Wait
	}
	if r.Backfilled {
		a.backfilled++
	}
	if r.Killed {
		a.killed++
	} else {
		a.completed++
	}
	a.tMin = math.Min(a.tMin, r.Arrival)
	a.tMax = math.Max(a.tMax, r.End)
	if r.Preempts > 0 {
		a.preempted++
	}
	a.attempts += float64(r.Attempts)
	a.cost += r.Cost
	a.nodeSecs += r.NodeSeconds
	a.waits.Add(r.Wait)
}

// Merge folds another accumulator in.
func (a *StatsAccumulator) Merge(o *StatsAccumulator) {
	a.jobs += o.jobs
	a.rejected += o.rejected
	a.admitted += o.admitted
	a.backfilled += o.backfilled
	a.killed += o.killed
	a.waitSum += o.waitSum
	if o.maxWait > a.maxWait {
		a.maxWait = o.maxWait
	}
	a.tMin = math.Min(a.tMin, o.tMin)
	a.tMax = math.Max(a.tMax, o.tMax)
	a.completed += o.completed
	a.preempted += o.preempted
	a.attempts += o.attempts
	a.cost += o.cost
	a.nodeSecs += o.nodeSecs
	a.waits.Merge(o.waits)
}

// Stats finalizes the aggregates for a cluster of the given capacity.
func (a *StatsAccumulator) Stats(capacity int) Stats {
	s := Stats{
		Jobs:       a.jobs,
		Rejected:   a.rejected,
		MaxWait:    a.maxWait,
		Backfilled: a.backfilled,
		Killed:     a.killed,
		Completed:  a.completed,
		Preempted:  a.preempted,
	}
	if a.admitted == 0 {
		return s // guard: no admitted jobs, nothing to average
	}
	s.MeanWait = a.waitSum / float64(a.admitted)
	s.MeanAttempts = a.attempts / float64(a.admitted)
	s.MeanCost = a.cost / float64(a.admitted)
	if span := a.tMax - a.tMin; span > 0 {
		s.Utilization = a.nodeSecs / (span * float64(capacity))
	}
	s.WaitP50 = a.waits.Quantile(0.50)
	s.WaitP95 = a.waits.Quantile(0.95)
	s.WaitP99 = a.waits.Quantile(0.99)
	s.WaitP999 = a.waits.Quantile(0.999)
	return s
}

// Summarize aggregates a result set for the given cluster.
func Summarize(cfg Config, results []Result) Stats {
	acc := NewStatsAccumulator()
	for _, r := range results {
		acc.Add(r)
	}
	return acc.Stats(cfg.Capacity())
}

// WaitProfile groups admitted jobs by their final requested walltime
// into equal-size buckets and averages each bucket's waits — the
// requested-vs-wait profile behind the Fig.-2 affine fit (as Fig. 2
// clusters jobs into 20 groups of similar requested runtime), directly
// consumable by trace.FitWaitTimeModel.
func WaitProfile(results []Result, groups int) ([]trace.WaitGroup, error) {
	req := make([]float64, 0, len(results))
	wait := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Rejected {
			continue
		}
		req = append(req, r.Requested)
		wait = append(wait, r.Wait)
	}
	return trace.BucketWaits(req, wait, groups)
}
