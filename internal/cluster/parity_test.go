package cluster

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
)

// costModelForSweep prices attempts in the sweep so finite budgets
// actually bind (rejections and mid-chain terminations occur).
var costModelForSweep = core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.1}

// parityScenarios and sweepScenarios size the property-test families
// below; together they must cover at least 100 seeded scenarios.
const (
	parityScenarios = 64
	sweepScenarios  = 9 * 6 // Table-1 laws × cluster/tenant configs
)

func TestScenarioCountFloor(t *testing.T) {
	if parityScenarios+sweepScenarios < 100 {
		t.Fatalf("property families cover %d scenarios, need >= 100", parityScenarios+sweepScenarios)
	}
}

// parityWorkload draws one random scenario: a node count, a backfill
// switch, and a job list with deliberate arrival and completion ties
// (grid-snapped times) so the deterministic tie-breaks are exercised,
// not just reached by luck.
func parityWorkload(seed uint64) (oracleConfig, []oracleJob) {
	r := rng.New(seed)
	nodeChoices := []int{1, 2, 3, 4, 6, 8, 12, 16}
	cfg := oracleConfig{
		Nodes:          nodeChoices[int(r.Uint64n(uint64(len(nodeChoices))))],
		EnableBackfill: r.Uint64n(2) == 0,
	}
	n := 1 + int(r.Uint64n(150))
	jobs := make([]oracleJob, n)
	now := 0.0
	for i := range jobs {
		// Half the arrivals snap to a 0.5 grid and often repeat the
		// previous instant, forcing batch arrivals.
		if r.Uint64n(2) == 0 {
			now += 0.5 * float64(r.Uint64n(4)) // may add 0: simultaneous
		} else {
			now += 2 * r.Float64()
		}
		req := 0.5 + 0.25*float64(r.Uint64n(40)) // grid: equal ends happen
		actual := req * (0.1 + 1.4*r.Float64())  // ~1/3 of jobs get killed
		if r.Uint64n(4) == 0 {
			actual = req // exact fit: the killed/finished boundary
		}
		jobs[i] = oracleJob{
			ID:        i,
			Arrival:   now,
			Nodes:     1 + int(r.Uint64n(uint64(cfg.Nodes))),
			Requested: req,
			Actual:    actual,
		}
	}
	return cfg, jobs
}

// toClusterJobs projects oracle jobs onto single-attempt cluster jobs.
func toClusterJobs(jobs []oracleJob) []Job {
	out := make([]Job, len(jobs))
	for i, j := range jobs {
		out[i] = Job{
			ID:      j.ID,
			Arrival: j.Arrival,
			Width:   j.Nodes,
			Actual:  j.Actual,
			Policy:  []float64{j.Requested},
		}
	}
	return out
}

// sameFloat is bit-exact float equality (the parity contract is
// bit-identical, not approximately equal).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func comparePair(t *testing.T, label string, seed uint64, want oracleResult, g Result) {
	t.Helper()
	if g.ID != want.ID || g.Nodes != want.Nodes ||
		!sameFloat(g.Arrival, want.Arrival) ||
		!sameFloat(g.Requested, want.Requested) ||
		!sameFloat(g.Actual, want.Actual) {
		t.Fatalf("seed %d %s job %d: identity fields diverged\noracle:  %+v\ncluster: %+v", seed, label, want.ID, want, g)
	}
	if !sameFloat(g.Start, want.Start) || !sameFloat(g.Wait, want.Wait) || !sameFloat(g.End, want.End) {
		t.Fatalf("seed %d %s job %d: schedule diverged\noracle:  start=%v wait=%v end=%v\ncluster: start=%v wait=%v end=%v",
			seed, label, want.ID, want.Start, want.Wait, want.End, g.Start, g.Wait, g.End)
	}
	if g.Killed != want.Killed || g.Backfilled != want.Backfilled || g.Rejected {
		t.Fatalf("seed %d %s job %d: flags diverged\noracle:  %+v\ncluster: %+v", seed, label, want.ID, want, g)
	}
	if g.Attempts != 1 || g.Kills != btoi(want.Killed) || g.Preempts != 0 {
		t.Fatalf("seed %d %s job %d: single-attempt accounting wrong: %+v", seed, label, want.ID, g)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestParityWithQueuesim is the degeneracy contract: on unit-capacity
// nodes (and equally on one node carrying the whole capacity), with
// single-attempt policies, an unmetered tenant, and EASY/none
// backfilling, the cluster simulator reproduces the single-queue
// reference simulator (oracleSimulate) bit-for-bit — every result field
// and every summary statistic.
func TestParityWithQueuesim(t *testing.T) {
	for seed := uint64(0); seed < parityScenarios; seed++ {
		qcfg, qjobs := parityWorkload(seed)
		want, err := oracleSimulate(qcfg, qjobs)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		backfill := BackfillNone
		if qcfg.EnableBackfill {
			backfill = BackfillEASY
		}
		shapes := []struct {
			label string
			nodes []int
		}{
			{"unit-nodes", UnitNodes(qcfg.Nodes)},
			{"one-fat-node", []int{qcfg.Nodes}},
		}
		for _, shape := range shapes {
			ccfg := Config{Nodes: shape.nodes, Backfill: backfill}
			var buf TraceBuffer
			ccfg.Recorder = &buf
			got, err := Simulate(ccfg, toClusterJobs(qjobs))
			if err != nil {
				t.Fatalf("seed %d %s: cluster: %v", seed, shape.label, err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d results, want %d", seed, shape.label, len(got), len(want))
			}
			for i := range want {
				comparePair(t, shape.label, seed, want[i], got[i])
			}
			// Summary parity: the shared stats must match bit-exactly.
			qs := oracleSummarize(qcfg, want)
			cs := Summarize(ccfg, got)
			if qs.Jobs != cs.Jobs || cs.Rejected != 0 ||
				qs.Backfilled != cs.Backfilled || qs.Killed != cs.Killed {
				t.Fatalf("seed %d %s: summary counts diverged: %+v vs %+v", seed, shape.label, qs, cs)
			}
			if !sameFloat(qs.MeanWait, cs.MeanWait) || !sameFloat(qs.MaxWait, cs.MaxWait) || !sameFloat(qs.Utilization, cs.Utilization) {
				t.Fatalf("seed %d %s: summary floats diverged: %+v vs %+v", seed, shape.label, qs, cs)
			}
			// And the trace must satisfy every invariant.
			if err := CheckTrace(ccfg, buf.Events); err != nil {
				t.Fatalf("seed %d %s: %v", seed, shape.label, err)
			}
		}
	}
}

// sweepPolicy builds a multi-attempt reservation sequence from a law's
// quantiles, keeping it strictly increasing.
func sweepPolicy(d dist.Distribution, ps ...float64) []float64 {
	var out []float64
	last := 0.0
	for _, p := range ps {
		q := d.Quantile(p)
		if !(q > last) || math.IsInf(q, 0) || math.IsNaN(q) {
			continue
		}
		out = append(out, q)
		last = q
	}
	if len(out) == 0 {
		out = []float64{1}
	}
	return out
}

// TestInvariantSweep runs every Table-1 law against six cluster/tenant
// shapes — heterogeneous capacities, finite budgets, tight quotas, all
// three backfill policies, and preemption — with the streaming
// Invariants checker attached. Any violation fails the run.
func TestInvariantSweep(t *testing.T) {
	laws := dist.Table1()
	names := dist.Table1Names()
	shapes := []struct {
		name    string
		nodes   []int
		tenants []Tenant
		back    BackfillPolicy
		preempt float64
	}{
		{"unit-easy", UnitNodes(4), nil, BackfillEASY, 0},
		{"fat-fcfs", []int{8}, nil, BackfillNone, 0},
		{"hetero-easy", []int{2, 3, 3}, []Tenant{
			{Name: "a", Budget: math.Inf(1)},
			{Name: "b", Budget: 4000, Quota: 3},
		}, BackfillEASY, 0},
		{"hetero-conservative", []int{1, 2, 4}, []Tenant{
			{Name: "a", Budget: math.Inf(1), Quota: 4},
			{Name: "b", Budget: 2500},
		}, BackfillConservative, 0},
		{"quota-pressure", UnitNodes(6), []Tenant{
			{Name: "a", Budget: math.Inf(1), Quota: 2},
			{Name: "b", Budget: math.Inf(1), Quota: 2},
			{Name: "c", Budget: 900, Quota: 1},
		}, BackfillEASY, 0},
		{"preempting", UnitNodes(5), []Tenant{
			{Name: "a", Budget: math.Inf(1)},
			{Name: "b", Budget: 3000},
		}, BackfillEASY, 2},
	}
	jobsPer := 1500
	if testing.Short() {
		jobsPer = 300
	}
	scenario := 0
	for li, law := range laws {
		for si, shape := range shapes {
			scenario++
			policy := sweepPolicy(law, 0.5, 0.75, 0.95, 0.999)
			capTotal := 0
			for _, c := range shape.nodes {
				capTotal += c
			}
			maxW := capTotal
			if len(shape.tenants) > 0 {
				// Keep widths satisfiable under the tightest quota.
				for _, tn := range shape.tenants {
					if tn.Quota > 0 && tn.Quota < maxW {
						maxW = tn.Quota
					}
				}
			}
			classes := make([]JobClass, 0, len(shape.tenants)+1)
			tenants := len(shape.tenants)
			if tenants == 0 {
				tenants = 1
			}
			for tn := 0; tn < tenants; tn++ {
				classes = append(classes, JobClass{
					Name:     names[li],
					Runtime:  law,
					Weight:   1 + float64(tn),
					MinWidth: 1,
					MaxWidth: maxW,
					Tenant:   tn,
					Policy:   policy,
				})
			}
			// Keep the system loaded but stable: mean demand ≈ 60% of
			// capacity.
			meanW := float64(1+maxW) / 2
			rate := 0.6 * float64(capTotal) / (meanW * law.Mean())
			spec := WorkloadSpec{
				Seed:        uint64(1000*li + si),
				Jobs:        jobsPer,
				ArrivalRate: rate,
				Classes:     classes,
			}
			cfg := Config{
				Nodes:        shape.nodes,
				Tenants:      shape.tenants,
				Backfill:     shape.back,
				Model:        costModelForSweep,
				PreemptAfter: shape.preempt,
			}
			out, err := Run(spec, cfg, 0, true)
			if err != nil {
				t.Fatalf("law %s shape %s: %v", names[li], shape.name, err)
			}
			if out.Stats.Jobs != jobsPer {
				t.Fatalf("law %s shape %s: %d jobs summarized, want %d", names[li], shape.name, out.Stats.Jobs, jobsPer)
			}
			if out.TraceEvents == 0 {
				t.Fatalf("law %s shape %s: empty trace", names[li], shape.name)
			}
		}
	}
	if scenario != sweepScenarios {
		t.Fatalf("ran %d sweep scenarios, expected %d", scenario, sweepScenarios)
	}
}
