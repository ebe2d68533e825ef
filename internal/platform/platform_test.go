package platform

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/strategy"
	"repro/internal/trace"
)

func TestNeuroHPCModel(t *testing.T) {
	m := NeuroHPC()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Alpha != 0.95 || m.Beta != 1 {
		t.Errorf("NeuroHPC α=%g β=%g, want 0.95, 1", m.Alpha, m.Beta)
	}
	if math.Abs(m.Gamma-1.0477333333333334) > 1e-9 {
		t.Errorf("NeuroHPC γ = %g h, want 3771.84/3600", m.Gamma)
	}
}

func TestNeuroHPCFromFittedModel(t *testing.T) {
	// End-to-end: synthesize the Intrepid log, fit it, build the model.
	log, err := trace.GenerateWaitTimeLog(trace.Intrepid409, 20, 600, 72000, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := trace.FitWaitTimeModel(log)
	if err != nil {
		t.Fatal(err)
	}
	m := NeuroHPCFromWaitModel(fit)
	if math.Abs(m.Alpha-0.95) > 1e-9 || math.Abs(m.Gamma-3771.84/3600) > 1e-9 {
		t.Errorf("fitted NeuroHPC model = %v", m)
	}
}

func TestPriceRatio(t *testing.T) {
	// The paper's Amazon AWS example: the two services differ by a
	// factor of 4.
	aws := PriceRatio{Reserved: 1, OnDemand: 4}
	th, err := aws.Threshold()
	if err != nil || th != 4 {
		t.Fatalf("threshold = %g, %v", th, err)
	}
	ok, err := aws.ReservationWorthwhile(2.13)
	if err != nil || !ok {
		t.Errorf("normalized 2.13 should be worthwhile under factor 4")
	}
	ok, err = aws.ReservationWorthwhile(5)
	if err != nil || ok {
		t.Errorf("normalized 5 should not be worthwhile under factor 4")
	}
	if _, err := (PriceRatio{}).Threshold(); err == nil {
		t.Error("zero prices accepted")
	}
}

func TestReplayMatchesExpectedCost(t *testing.T) {
	// The event-level simulator converges to the Eq.-(4) closed form.
	d := dist.MustLogNormal(3, 0.5)
	m := core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.3}
	s, err := strategy.MeanDoubling{}.Sequence(m, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.ExpectedCost(m, d, s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(m, d, s, 100000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeanCost-want) > 0.02*want {
		t.Errorf("replay mean %g vs analytic %g", rep.MeanCost, want)
	}
	if rep.NormalizedCost < 1 {
		t.Errorf("normalized %g < 1", rep.NormalizedCost)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Errorf("utilization = %g", rep.Utilization)
	}
	if rep.MeanAttempts < 1 {
		t.Errorf("mean attempts = %g", rep.MeanAttempts)
	}
	if len(rep.Jobs) != 100000 {
		t.Errorf("job log has %d entries", len(rep.Jobs))
	}
}

func TestReplayPerJobAccounting(t *testing.T) {
	// Single deterministic-ish check: Uniform(10, 20) under (15, 20).
	d := dist.MustUniform(10, 20)
	s, err := core.NewExplicitSequence(15, 20)
	if err != nil {
		t.Fatal(err)
	}
	m := core.ReservationOnly
	rep, err := Replay(m, d, s, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range rep.Jobs {
		switch {
		case j.ExecutionTime <= 15:
			if j.Attempts != 1 || j.Cost != 15 || j.Reserved != 15 {
				t.Fatalf("short job accounted wrong: %+v", j)
			}
			if j.Used != j.ExecutionTime {
				t.Fatalf("short job used %g, want t", j.Used)
			}
		default:
			if j.Attempts != 2 || j.Cost != 35 || j.Reserved != 35 {
				t.Fatalf("long job accounted wrong: %+v", j)
			}
			if math.Abs(j.Used-(15+j.ExecutionTime)) > 1e-12 {
				t.Fatalf("long job used %g, want 15+t", j.Used)
			}
		}
	}
	// Expected cost: 15 + P(X>15)·20 = 25.
	if math.Abs(rep.MeanCost-25) > 0.5 {
		t.Errorf("mean cost = %g, want ≈25", rep.MeanCost)
	}
}

func TestReplayValidation(t *testing.T) {
	d := dist.MustUniform(10, 20)
	s, _ := core.NewExplicitSequence(20)
	if _, err := Replay(core.CostModel{}, d, s, 10, 1); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := Replay(core.ReservationOnly, d, s, 0, 1); err == nil {
		t.Error("zero jobs accepted")
	}
	// Uncovered sequence surfaces as an error.
	short, _ := core.NewExplicitSequence(12)
	if _, err := Replay(core.ReservationOnly, d, short, 1000, 1); err == nil {
		t.Error("uncovered sequence replayed without error")
	}
}

func TestNeuroHPCScenarioEndToEnd(t *testing.T) {
	// §5.3 in miniature: fit the trace, build the model in hours, plan
	// with MEAN-DOUBLING, replay; the normalized cost must be sane and
	// the brute-force plan must do at least as well.
	samples, err := trace.GenerateRunTrace(trace.VBMQA, 3000, 0.01, 9)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := dist.FitLogNormal(samples)
	if err != nil {
		t.Fatal(err)
	}
	// Convert seconds → hours.
	d, err := dist.NewLogNormal(fitted.Mu()-math.Log(SecondsPerHour), fitted.Sigma())
	if err != nil {
		t.Fatal(err)
	}
	m := NeuroHPC()

	md, err := strategy.MeanDoubling{}.Sequence(m, d)
	if err != nil {
		t.Fatal(err)
	}
	eMD, err := core.ExpectedCost(m, d, md)
	if err != nil {
		t.Fatal(err)
	}
	eMD /= m.OmniscientCost(d)
	bf, err := strategy.BruteForce{M: 800, Mode: strategy.EvalAnalytic}.Search(m, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	eBF := bf.Best.Cost / m.OmniscientCost(d)
	if eBF > eMD+1e-9 {
		t.Errorf("brute force (%g) worse than mean-doubling (%g)", eBF, eMD)
	}
	if eBF < 1 || eBF > 3 {
		t.Errorf("NeuroHPC brute-force normalized cost = %g, expected O(1–3)", eBF)
	}
}

// TestReplayMatchesAnalyticStats: the event-level simulator's attempt
// count and utilization converge to core.Stats' closed forms.
func TestReplayMatchesAnalyticStats(t *testing.T) {
	d := dist.MustLogNormal(3, 0.5)
	m := core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.3}
	s, err := strategy.MeanDoubling{}.Sequence(m, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Stats(m, d, s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(m, d, s, 100000, 17)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeanAttempts-want.ExpectedAttempts) > 0.02*want.ExpectedAttempts {
		t.Errorf("attempts: replay %g vs analytic %g", rep.MeanAttempts, want.ExpectedAttempts)
	}
	if math.Abs(rep.Utilization-want.Utilization) > 0.02 {
		t.Errorf("utilization: replay %g vs analytic %g", rep.Utilization, want.Utilization)
	}
}
