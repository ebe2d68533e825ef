package cluster

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/trace"
)

// The tests in this file drive the simulator in its single-queue
// degenerate shape — unit nodes, one unmetered tenant, single-attempt
// jobs — the classic FCFS/EASY model behind the Fig.-2 derivation.

// fixedJob is a single-attempt job: its policy is one requested
// walltime.
func fixedJob(id int, arrival float64, width int, requested, actual float64) Job {
	return Job{ID: id, Arrival: arrival, Width: width, Actual: actual, Policy: []float64{requested}}
}

// queueConfig is a cluster of n unit nodes, EASY-backfilling or FCFS.
func queueConfig(n int, easy bool) Config {
	cfg := Config{Nodes: UnitNodes(n)}
	if easy {
		cfg.Backfill = BackfillEASY
	}
	return cfg
}

func TestEmptyClusterNoWait(t *testing.T) {
	res, err := Simulate(queueConfig(4, false), []Job{fixedJob(0, 5, 2, 10, 7)})
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Wait != 0 || r.Start != 5 || r.End != 12 || r.Killed {
		t.Errorf("result = %+v", r)
	}
}

func TestJobKilledAtRequest(t *testing.T) {
	res, err := Simulate(queueConfig(1, false), []Job{fixedJob(0, 0, 1, 5, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Killed || res[0].End != 5 {
		t.Errorf("result = %+v", res[0])
	}
}

func TestFCFSOrderWithoutBackfill(t *testing.T) {
	// Head needs the whole cluster; a tiny later job must NOT jump it
	// when backfilling is off.
	jobs := []Job{
		fixedJob(0, 0, 4, 10, 10),
		fixedJob(1, 1, 4, 10, 10),
		fixedJob(2, 2, 1, 1, 1),
	}
	res, err := Simulate(queueConfig(4, false), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[2].Start < res[1].Start {
		t.Errorf("FCFS violated: tiny job started %g before blocked head %g", res[2].Start, res[1].Start)
	}
	if res[2].Backfilled {
		t.Error("backfilled flag set without backfilling")
	}
}

func TestEASYBackfillsShortJob(t *testing.T) {
	// Cluster of 4: job0 takes all 4 nodes until t=10. job1 (head,
	// blocked) needs 4. job2 needs 1 node for 3 units.
	jobs := []Job{
		fixedJob(0, 0, 4, 10, 10),
		fixedJob(1, 1, 4, 10, 10),
		fixedJob(2, 2, 1, 3, 3),
	}
	res, err := Simulate(queueConfig(4, true), jobs)
	if err != nil {
		t.Fatal(err)
	}
	// With all nodes busy there is nothing to backfill into: job2 runs
	// after the head, exactly as under FCFS.
	if res[2].Backfilled || res[2].Start != 20 {
		t.Errorf("job backfilled into a full cluster: %+v", res[2])
	}

	// Now leave one node free: job0 takes 3 of 4 nodes. job2 fits now
	// and ends by the shadow time (10), so EASY starts it immediately.
	jobs[0].Width = 3
	res, err = Simulate(queueConfig(4, true), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !res[2].Backfilled || res[2].Start != 2 {
		t.Errorf("short job not backfilled: %+v", res[2])
	}
	// EASY guarantee: the head (job1) still starts at t=10, undelayed.
	if res[1].Start != 10 {
		t.Errorf("backfilling delayed the head job: start=%g, want 10", res[1].Start)
	}
}

func TestEASYRejectsDelayingBackfill(t *testing.T) {
	// One node free, shadow at t=10; a 1-node job requesting 20 units
	// would run past the shadow AND the head needs all nodes, so it
	// must NOT backfill.
	jobs := []Job{
		fixedJob(0, 0, 3, 10, 10),
		fixedJob(1, 1, 4, 10, 10),
		fixedJob(2, 2, 1, 20, 20),
	}
	res, err := Simulate(queueConfig(4, true), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if res[2].Backfilled {
		t.Errorf("delaying backfill allowed: %+v", res[2])
	}
	if res[1].Start != 10 {
		t.Errorf("head start = %g, want 10", res[1].Start)
	}
	// But if the head leaves a spare node at its shadow time, the long
	// narrow job may use it.
	jobs[1].Width = 3
	res, err = Simulate(queueConfig(4, true), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !res[2].Backfilled || res[2].Start != 2 {
		t.Errorf("spare-node backfill refused: %+v", res[2])
	}
	if res[1].Start != 10 {
		t.Errorf("head delayed by spare-node backfill: %g", res[1].Start)
	}
}

func TestSingleQueueValidation(t *testing.T) {
	if _, err := Simulate(queueConfig(0, false), nil); err == nil {
		t.Error("zero-node cluster accepted")
	}
	for _, tc := range []struct {
		name string
		job  Job
	}{
		{"oversized job", fixedJob(0, 0, 3, 1, 1)},
		{"zero request", fixedJob(0, 0, 1, 0, 1)},
		{"negative arrival", fixedJob(0, -1, 1, 1, 1)},
	} {
		if _, err := Simulate(queueConfig(2, false), []Job{tc.job}); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestSingleQueueInvariants: on random workloads — every job runs
// exactly once, never before arrival, and capacity is never exceeded.
func TestSingleQueueInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 5
		r := rng.New(seed)
		const nodes = 8
		jobs := make([]Job, n)
		tNow := 0.0
		for i := range jobs {
			tNow += r.ExpFloat64() * 2
			req := 0.5 + 10*r.Float64()
			width := 1 + int(r.Uint64n(nodes))
			jobs[i] = fixedJob(i, tNow, width, req, req*(0.5+0.5*r.Float64()))
		}
		for _, easy := range []bool{false, true} {
			res, err := Simulate(queueConfig(nodes, easy), jobs)
			if err != nil || len(res) != n {
				return false
			}
			for _, rr := range res {
				if rr.Start < rr.Arrival-1e-9 || rr.End < rr.Start {
					return false
				}
			}
			// O(n²) capacity check at each start instant (a job ending
			// exactly when another starts releases its nodes first).
			for _, a := range res {
				used := 0
				for _, b := range res {
					if b.Start <= a.Start && a.Start < b.End {
						used += b.Nodes
					}
				}
				if used > nodes {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestBackfillImprovesMeanWait: under a congested heterogeneous load,
// EASY backfilling reduces the mean wait.
func TestBackfillImprovesMeanWait(t *testing.T) {
	jobs, err := GenerateFig2Jobs(Fig2Workload{
		Jobs: 800, MaxJobNodes: 8, ArrivalRate: 0.9,
		RequestedMin: 1, RequestedMax: 50, UseFraction: 0.7, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	fcfs, easy := queueConfig(16, false), queueConfig(16, true)
	resF, err := Simulate(fcfs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Simulate(easy, jobs)
	if err != nil {
		t.Fatal(err)
	}
	sf := Summarize(fcfs, resF)
	sb := Summarize(easy, resB)
	if !(sb.MeanWait < sf.MeanWait) {
		t.Errorf("backfilling did not reduce mean wait: %g vs %g", sb.MeanWait, sf.MeanWait)
	}
	if sb.Backfilled == 0 {
		t.Error("no job backfilled under congestion")
	}
	if sb.Utilization <= 0 || sb.Utilization > 1 {
		t.Errorf("utilization = %g", sb.Utilization)
	}
}

// TestDerivedWaitProfileIsAffineIncreasing: the Fig.-2 phenomenon
// emerges from the scheduler — longer requests wait longer, and the
// affine fit has positive slope and intercept.
func TestDerivedWaitProfileIsAffineIncreasing(t *testing.T) {
	wl := Fig2Workload{
		Jobs: 3000, MaxJobNodes: 12, ArrivalRate: 1.1,
		RequestedMin: 1, RequestedMax: 60, UseFraction: 0.7, Seed: 11,
	}
	model, prof, stats, err := DeriveWaitTimeModel(16, wl, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 15 {
		t.Fatalf("%d groups", len(prof))
	}
	if model.Alpha <= 0 {
		t.Errorf("derived slope %g, want positive (longer requests wait longer)", model.Alpha)
	}
	if model.Gamma < 0 {
		t.Errorf("derived intercept %g, want nonnegative", model.Gamma)
	}
	// The last-group average wait exceeds the first-group one.
	if !(prof[len(prof)-1].AvgWaitSec > prof[0].AvgWaitSec) {
		t.Errorf("wait profile not increasing: first %g last %g",
			prof[0].AvgWaitSec, prof[len(prof)-1].AvgWaitSec)
	}
	if stats.Utilization < 0.3 {
		t.Errorf("utilization %g too low for a congestion study", stats.Utilization)
	}
	if _, _, _, err := DeriveWaitTimeModel(0, wl, 15); err == nil {
		t.Error("zero-node cluster accepted")
	}
}

func TestWaitProfileValidation(t *testing.T) {
	if _, err := WaitProfile(nil, 5); err == nil {
		t.Error("empty results accepted")
	}
	if _, err := WaitProfile(make([]Result, 3), 1); err == nil {
		t.Error("single group accepted")
	}
}

func TestGenerateFig2JobsValidation(t *testing.T) {
	good := Fig2Workload{Jobs: 10, MaxJobNodes: 4, ArrivalRate: 1, RequestedMin: 1, RequestedMax: 10, UseFraction: 0.5}
	if _, err := GenerateFig2Jobs(good); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Fig2Workload{
		{Jobs: 0, MaxJobNodes: 4, ArrivalRate: 1, RequestedMin: 1, RequestedMax: 10, UseFraction: 0.5},
		{Jobs: 10, MaxJobNodes: 0, ArrivalRate: 1, RequestedMin: 1, RequestedMax: 10, UseFraction: 0.5},
		{Jobs: 10, MaxJobNodes: 4, ArrivalRate: 0, RequestedMin: 1, RequestedMax: 10, UseFraction: 0.5},
		{Jobs: 10, MaxJobNodes: 4, ArrivalRate: 1, RequestedMin: 10, RequestedMax: 1, UseFraction: 0.5},
		{Jobs: 10, MaxJobNodes: 4, ArrivalRate: 1, RequestedMin: 1, RequestedMax: 10, UseFraction: 1.5},
	}
	for i, wl := range bad {
		if _, err := GenerateFig2Jobs(wl); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestFig2WorkloadDeterminism: identical seeds give identical workloads
// and simulations.
func TestFig2WorkloadDeterminism(t *testing.T) {
	wl := Fig2Workload{Jobs: 200, MaxJobNodes: 4, ArrivalRate: 1, RequestedMin: 1, RequestedMax: 10, UseFraction: 0.6, Seed: 9}
	a, errA := GenerateFig2Jobs(wl)
	b, errB := GenerateFig2Jobs(wl)
	if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
		t.Fatalf("workloads differ (%v, %v)", errA, errB)
	}
	ra, err := Simulate(queueConfig(8, true), a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Simulate(queueConfig(8, true), b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("simulations differ")
	}
}

// TestEndToEndFig2FromScheduler: the derived model plugs into the
// NeuroHPC pipeline exactly like the synthetic log's fit does.
func TestEndToEndFig2FromScheduler(t *testing.T) {
	wl := Fig2Workload{
		Jobs: 1500, MaxJobNodes: 12, ArrivalRate: 1.0,
		RequestedMin: 600, RequestedMax: 72000, UseFraction: 0.7, Seed: 2,
	}
	model, _, _, err := DeriveWaitTimeModel(16, wl, 20)
	if err != nil {
		t.Fatal(err)
	}
	// The derived model is a usable wait-time law: positive slope,
	// finite intercept, and FitWaitTimeModel round-trips through the
	// same struct the synthetic generator produces.
	if model.Alpha <= 0 || math.IsNaN(model.Gamma) {
		t.Errorf("derived model %+v unusable", model)
	}
	var _ trace.WaitTimeModel = model
}
