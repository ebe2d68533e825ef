// Package platform instantiates the paper's two evaluation platforms
// (§5.1) and provides a replay simulator that executes a reservation
// strategy job-by-job on a simulated reservation-based platform,
// cross-validating the closed-form expected costs:
//
//   - ReservationOnly: the AWS Reserved-Instance pricing scheme — the
//     user pays exactly the reserved duration (α=1, β=γ=0), and the
//     Reserved-vs-On-Demand price ratio decides whether reserving is
//     worthwhile at all;
//   - NeuroHPC: large jobs on an HPC platform where the cost is the
//     turnaround time — the queue wait (an affine function of the
//     requested duration, fitted from the Intrepid log) plus the actual
//     execution time (α=0.95, β=1, γ=1.05 h).
package platform

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/trace"
)

// SecondsPerHour converts the trace substrate's seconds to the
// NeuroHPC scenario's hours.
const SecondsPerHour = 3600.0

// NeuroHPC returns the §5.3 cost model in hours: the turnaround time
// α·request + β·execution + γ with the published Intrepid fit
// (α=0.95, γ=1.05 h) and β=1.
func NeuroHPC() core.CostModel {
	return NeuroHPCFromWaitModel(trace.Intrepid409)
}

// NeuroHPCFromWaitModel builds the NeuroHPC cost model (in hours) from
// an arbitrary affine wait-time fit in seconds, e.g. one recovered by
// trace.FitWaitTimeModel.
func NeuroHPCFromWaitModel(w trace.WaitTimeModel) core.CostModel {
	return core.CostModel{Alpha: w.Alpha, Beta: 1, Gamma: w.Gamma / SecondsPerHour}
}

// PriceRatio captures the Reserved-Instance vs On-Demand per-hour
// prices of a cloud provider (§5.2): using reservations pays off when
// the normalized expected cost of the strategy stays below
// OnDemand/Reserved.
type PriceRatio struct {
	// Reserved is the per-hour Reserved-Instance price.
	Reserved float64
	// OnDemand is the per-hour On-Demand price.
	OnDemand float64
}

// Threshold returns c_OD / c_RI, the normalized-cost level below which
// reserving beats running on demand.
func (p PriceRatio) Threshold() (float64, error) {
	if !(p.Reserved > 0) || !(p.OnDemand > 0) {
		return 0, fmt.Errorf("platform: prices must be positive, got %+v", p)
	}
	return p.OnDemand / p.Reserved, nil
}

// ReservationWorthwhile reports whether a strategy with the given
// normalized expected cost (relative to the omniscient scheduler) is
// cheaper under reservations than on demand: c_RI·E(S) <= c_OD·E^o.
func (p PriceRatio) ReservationWorthwhile(normalizedCost float64) (bool, error) {
	th, err := p.Threshold()
	if err != nil {
		return false, err
	}
	return normalizedCost <= th, nil
}

// JobRecord is the outcome of one job replayed on the simulated
// platform.
type JobRecord struct {
	// ExecutionTime is the job's sampled duration.
	ExecutionTime float64
	// Attempts is the number of reservations paid.
	Attempts int
	// Reserved is the total reserved duration across attempts.
	Reserved float64
	// Used is the total machine time actually consumed.
	Used float64
	// Cost is the total Eq.-(2) cost.
	Cost float64
}

// ReplayReport aggregates a replay run.
type ReplayReport struct {
	// Jobs is the per-job log.
	Jobs []JobRecord
	// MeanCost is the average per-job cost (the Eq.-13 estimate).
	MeanCost float64
	// MeanAttempts is the average number of reservations per job.
	MeanAttempts float64
	// Utilization is total used time divided by total reserved time —
	// the fraction of paid reservation time doing useful work.
	Utilization float64
	// NormalizedCost is MeanCost over the omniscient expected cost.
	NormalizedCost float64
}

// Replay runs n jobs sampled from d through the reservation strategy s
// on a simulated reservation-based platform under cost model m. It is
// an event-level cross-check of the closed-form expected cost: the
// returned MeanCost converges to core.ExpectedCost as n grows.
func Replay(m core.CostModel, d dist.Distribution, s *core.Sequence, n int, seed uint64) (ReplayReport, error) {
	if err := m.Validate(); err != nil {
		return ReplayReport{}, err
	}
	if n <= 0 {
		return ReplayReport{}, errors.New("platform: need at least one job")
	}
	r := rng.New(seed)
	rep := ReplayReport{Jobs: make([]JobRecord, 0, n)}
	var totalCost, totalAttempts, totalReserved, totalUsed float64
	for i := 0; i < n; i++ {
		t := dist.Sample(d, r)
		rec := JobRecord{ExecutionTime: t}
		for k := 0; ; k++ {
			res, err := s.At(k)
			if err != nil {
				return ReplayReport{}, fmt.Errorf("platform: job %d (t=%g): %w", i, t, err)
			}
			rec.Attempts++
			rec.Reserved += res
			used := math.Min(res, t)
			rec.Used += used
			rec.Cost += m.AttemptCost(res, t)
			if t <= res {
				break
			}
		}
		totalCost += rec.Cost
		totalAttempts += float64(rec.Attempts)
		totalReserved += rec.Reserved
		totalUsed += rec.Used
		rep.Jobs = append(rep.Jobs, rec)
	}
	rep.MeanCost = totalCost / float64(n)
	rep.MeanAttempts = totalAttempts / float64(n)
	if totalReserved > 0 {
		rep.Utilization = totalUsed / totalReserved
	}
	rep.NormalizedCost = rep.MeanCost / m.OmniscientCost(d)
	return rep, nil
}
