package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// This file keeps the single-queue reference simulator the cluster
// simulator grew out of: one pool of identical nodes, FCFS order with
// optional EASY backfilling, every job a single fixed reservation that
// kills it at its requested walltime. It is deliberately naive — sort
// the running set at every completion, copy it for every shadow time —
// and exists only as the oracle of TestParityWithQueuesim.

// oracleJob is one submission.
type oracleJob struct {
	ID        int
	Arrival   float64
	Nodes     int
	Requested float64 // the reservation length
	Actual    float64 // occupies its nodes for min(Actual, Requested)
}

// oracleResult is the outcome of one job.
type oracleResult struct {
	oracleJob
	Start, Wait, End   float64
	Killed, Backfilled bool
}

// oracleConfig describes the cluster and scheduling policy.
type oracleConfig struct {
	Nodes          int
	EnableBackfill bool
}

// oracleRunning is an executing job. seq is the start-order counter;
// sorting by (end, seq) makes completion order deterministic even when
// two jobs release their nodes at exactly the same instant.
type oracleRunning struct {
	end   float64
	nodes int
	seq   int
}

// oracleByEndSeq orders running jobs by (end, seq).
func oracleByEndSeq(rs []oracleRunning) func(i, k int) bool {
	return func(i, k int) bool {
		if rs[i].end != rs[k].end { //lint:ignore floatcmp exact tie detection: equal ends must fall through to the seq tie-break
			return rs[i].end < rs[k].end
		}
		return rs[i].seq < rs[k].seq
	}
}

// oracleSimulate runs the jobs (any order; they are sorted by arrival)
// to completion and returns per-job results sorted by ID.
func oracleSimulate(cfg oracleConfig, jobs []oracleJob) ([]oracleResult, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("oracle: cluster needs at least 1 node, got %d", cfg.Nodes)
	}
	for _, j := range jobs {
		if j.Nodes < 1 || j.Nodes > cfg.Nodes {
			return nil, fmt.Errorf("oracle: job %d requests %d nodes on a %d-node cluster", j.ID, j.Nodes, cfg.Nodes)
		}
		if !(j.Requested > 0) || j.Actual < 0 || math.IsNaN(j.Arrival) || j.Arrival < 0 {
			return nil, fmt.Errorf("oracle: job %d has invalid times", j.ID)
		}
	}

	pending := append([]oracleJob(nil), jobs...)
	sort.SliceStable(pending, func(i, k int) bool { return pending[i].Arrival < pending[k].Arrival })

	var (
		now      float64
		free     = cfg.Nodes
		run      []oracleRunning
		queue    []oracleJob
		results  = make([]oracleResult, 0, len(jobs))
		next     int // index into pending
		startSeq int // start-order counter for deterministic end ties
	)

	finishOne := func() {
		// Pop the earliest completion (ties broken by start order).
		sort.Slice(run, oracleByEndSeq(run))
		now = run[0].end
		free += run[0].nodes
		run = run[1:]
	}

	start := func(j oracleJob, backfilled bool) {
		res := oracleResult{
			oracleJob:  j,
			Start:      now,
			Wait:       now - j.Arrival,
			End:        now + math.Min(j.Actual, j.Requested),
			Killed:     j.Actual > j.Requested,
			Backfilled: backfilled,
		}
		results = append(results, res)
		run = append(run, oracleRunning{end: res.End, nodes: j.Nodes, seq: startSeq})
		startSeq++
		free -= j.Nodes
	}

	// schedule starts whatever can start at the current time.
	schedule := func() {
		for len(queue) > 0 {
			head := queue[0]
			if head.Nodes <= free {
				queue = queue[1:]
				start(head, false)
				continue
			}
			if !cfg.EnableBackfill {
				return
			}
			// EASY backfilling: a later job starts now if it fits and
			// either ends by the head's shadow time or fits into the
			// nodes the head will not need then.
			shadow, spare := oracleShadow(head, free, run)
			kept := queue[:1]
			for _, j := range queue[1:] {
				fitsNow := j.Nodes <= free
				endsByShadow := now+j.Requested <= shadow+1e-12
				fitsSpare := j.Nodes <= spare
				if fitsNow && (endsByShadow || fitsSpare) {
					start(j, true)
					if fitsSpare && !endsByShadow {
						spare -= j.Nodes
					}
					continue
				}
				kept = append(kept, j)
			}
			queue = kept
			return
		}
	}

	// Strict event loop: schedule at the current instant, then consume
	// exactly one event (a completion or a batch of simultaneous
	// arrivals; completions win ties).
	for {
		schedule()
		nextArrival := math.Inf(1)
		if next < len(pending) {
			nextArrival = pending[next].Arrival
		}
		nextEnd := math.Inf(1)
		for _, r := range run {
			nextEnd = math.Min(nextEnd, r.end)
		}
		if math.IsInf(nextArrival, 1) && math.IsInf(nextEnd, 1) {
			if len(queue) > 0 {
				return nil, errors.New("oracle: deadlock")
			}
			break
		}
		if nextEnd <= nextArrival {
			finishOne()
		} else {
			now = nextArrival
			//lint:ignore floatcmp now was assigned from this arrival time, so batch-arrival equality is exact
			for next < len(pending) && pending[next].Arrival == now {
				queue = append(queue, pending[next])
				next++
			}
		}
	}

	sort.Slice(results, func(i, k int) bool { return results[i].ID < results[k].ID })
	return results, nil
}

// oracleShadow computes the earliest time the head job could start and
// the nodes that remain spare at that moment beyond the head's need.
func oracleShadow(head oracleJob, free int, run []oracleRunning) (shadow float64, spare int) {
	rs := append([]oracleRunning(nil), run...)
	sort.Slice(rs, oracleByEndSeq(rs))
	avail := free
	for _, r := range rs {
		if avail >= head.Nodes {
			break
		}
		avail += r.nodes
		shadow = r.end
	}
	if avail < head.Nodes {
		return math.Inf(1), 0
	}
	return shadow, avail - head.Nodes
}

// oracleStats is the reference summary: counts, the mean and maximum
// wait, and busy node-time over Nodes·makespan.
type oracleStats struct {
	Jobs, Backfilled, Killed       int
	MeanWait, MaxWait, Utilization float64
}

// oracleSummarize aggregates results in ID order.
func oracleSummarize(cfg oracleConfig, results []oracleResult) oracleStats {
	var s oracleStats
	var waitSum, busy float64
	tMin, tMax := math.Inf(1), 0.0
	for _, r := range results {
		s.Jobs++
		waitSum += r.Wait
		if r.Wait > s.MaxWait {
			s.MaxWait = r.Wait
		}
		if r.Backfilled {
			s.Backfilled++
		}
		if r.Killed {
			s.Killed++
		}
		busy += (r.End - r.Start) * float64(r.Nodes)
		tMin = math.Min(tMin, r.Arrival)
		tMax = math.Max(tMax, r.End)
	}
	if s.Jobs == 0 {
		return s
	}
	s.MeanWait = waitSum / float64(s.Jobs)
	if span := tMax - tMin; span > 0 {
		s.Utilization = busy / (span * float64(cfg.Nodes))
	}
	return s
}
