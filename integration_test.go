package repro

// Integration tests: the full pipelines across modules, end to end —
// trace generation → fitting → planning → platform replay → economics,
// and the internal consistency of every strategy against both cost
// evaluators and the replay simulator.

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/platform"
	"repro/internal/simulate"
	"repro/internal/trace"
)

// TestEndToEndNeuroHPCPipeline walks the complete §5.3 scenario:
// synthetic trace → LogNormal fit → unit conversion → wait-time fit →
// cost model → plan per strategy → replay, asserting cross-module
// consistency at each joint.
func TestEndToEndNeuroHPCPipeline(t *testing.T) {
	// 1. Execution trace and fit.
	runs, err := trace.GenerateRunTrace(trace.VBMQA, 4000, 0.01, 21)
	if err != nil {
		t.Fatal(err)
	}
	fitSec, err := dist.FitLogNormal(runs)
	if err != nil {
		t.Fatal(err)
	}
	if ks := dist.KSStatistic(runs, fitSec); ks > 0.03 {
		t.Fatalf("trace fit KS = %g", ks)
	}
	// 2. Unit conversion through the generic scaler.
	d, err := dist.NewScaled(fitSec, 1/platform.SecondsPerHour)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-fitSec.Mean()/3600) > 1e-9 {
		t.Fatal("unit conversion broke the mean")
	}
	// 3. Queue model fit.
	wlog, err := trace.GenerateWaitTimeLog(trace.Intrepid409, 20, 600, 72000, 0.03, 22)
	if err != nil {
		t.Fatal(err)
	}
	wfit, err := trace.FitWaitTimeModel(wlog)
	if err != nil {
		t.Fatal(err)
	}
	m := platform.NeuroHPCFromWaitModel(wfit)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}

	// 4. Plans for every strategy; 5. replay the best.
	bestCost := math.Inf(1)
	var bestPlan *Plan
	for _, name := range Strategies() {
		p, err := MakePlan(m, d, name, Options{GridM: 600, DiscN: 400})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Analytic and Monte-Carlo evaluations agree for every plan.
		norm, se, err := p.Simulate(20000, 23)
		if err != nil {
			t.Fatalf("%s simulate: %v", name, err)
		}
		if math.Abs(norm-p.NormalizedCost) > 5*se+0.02 {
			t.Errorf("%s: MC %g ± %g vs analytic %g", name, norm, se, p.NormalizedCost)
		}
		if p.ExpectedCost < bestCost {
			bestCost, bestPlan = p.ExpectedCost, p
		}
	}

	rep, err := platform.Replay(m, d, bestPlan.Sequence().Clone(), 30000, 24)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeanCost-bestCost) > 0.03*bestCost {
		t.Errorf("replay %g vs analytic %g", rep.MeanCost, bestCost)
	}
	if rep.Utilization <= 0.2 || rep.Utilization > 1 {
		t.Errorf("utilization %g", rep.Utilization)
	}
}

// TestStrategyCoherenceAcrossEvaluators: for every Table-1 distribution
// and every strategy, the plan's Eq.-(4) cost agrees with the Eq.-(13)
// Monte-Carlo evaluation of its sequence. (Eq. 4 against the Eq.-(3)
// integral on these same plans is internal/core's TestPlansMatchIntegral,
// next to the integral oracle.)
func TestStrategyCoherenceAcrossEvaluators(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := Options{GridM: 400, DiscN: 300}
	for _, d := range dist.Table1() {
		for _, name := range []string{StrategyBruteForce, StrategyMeanDoubling, StrategyEqualProb} {
			p, err := MakePlan(ReservationOnly, d, name, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name(), name, err)
			}
			est, err := simulate.CostOnSamples(ReservationOnly, p.Sequence().Clone(), simulate.Samples(d, 40000, 77), 0)
			if err != nil {
				t.Fatalf("%s/%s MC: %v", d.Name(), name, err)
			}
			if math.Abs(est.Mean-p.ExpectedCost) > 5*est.StdErr+0.01*p.ExpectedCost {
				t.Errorf("%s/%s: MC %g ± %g vs %g", d.Name(), name, est.Mean, est.StdErr, p.ExpectedCost)
			}
		}
	}
}

// TestEconomicsPipeline: fleet economics across distributions — the
// reservation decision flips as the price ratio shrinks below each
// plan's normalized cost.
func TestEconomicsPipeline(t *testing.T) {
	for _, d := range dist.Table1() {
		p, err := MakePlan(ReservationOnly, d, StrategyEqualProb, Options{DiscN: 400})
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		above, err := p.ReservedVsOnDemand(p.NormalizedCost * 1.01)
		if err != nil || !above {
			t.Errorf("%s: ratio just above cost should favour reserving", d.Name())
		}
		below, err := p.ReservedVsOnDemand(p.NormalizedCost * 0.99)
		if err != nil || below {
			t.Errorf("%s: ratio just below cost should favour on-demand", d.Name())
		}
	}
}

// TestCheckpointVsPlainAcrossTails: the checkpoint advantage grows with
// tail weight — heavy-tailed Weibull gains more than light-tailed
// TruncatedNormal-like laws.
func TestCheckpointVsPlainAcrossTails(t *testing.T) {
	gain := func(d Distribution) float64 {
		pol, err := MakeCheckpointPlan(ReservationOnly, d, CheckpointParams{C: 0.02 * d.Mean(), R: 0.02 * d.Mean()}, Options{DiscN: 80})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := MakePlan(ReservationOnly, d, StrategyEqualProb, Options{DiscN: 80})
		if err != nil {
			t.Fatal(err)
		}
		return 1 - pol.ExpectedCost/plain.ExpectedCost
	}
	heavy, _ := Weibull(1, 0.5)
	light, _ := TruncatedNormal(8, 1.414, 0)
	gh, gl := gain(heavy), gain(light)
	if gh <= gl {
		t.Errorf("heavy-tail gain %g not above light-tail gain %g", gh, gl)
	}
	if gh < 0.15 {
		t.Errorf("heavy-tail gain %g suspiciously small", gh)
	}
}
