package checkpoint

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/dist"
	"repro/internal/dp"
	"repro/internal/rng"
)

func disc(t *testing.T, vals, probs []float64) *dist.Discrete {
	t.Helper()
	d, err := dist.NewDiscrete(vals, probs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestNoCheckpointMatchesTheorem5: with checkpoints forbidden the DP
// must coincide with the paper's Theorem-5 dynamic program.
func TestNoCheckpointMatchesTheorem5(t *testing.T) {
	d := disc(t, []float64{1, 2, 4, 8, 16}, []float64{0.4, 0.3, 0.15, 0.1, 0.05})
	for _, m := range []core.CostModel{core.ReservationOnly, {Alpha: 1, Beta: 0.5, Gamma: 1}} {
		pol, err := SolveNoCheckpoint(d, m, Params{C: 3, R: 2})
		if err != nil {
			t.Fatal(err)
		}
		want, err := dp.Solve(d, m)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(pol.ExpectedCost-want.ExpectedCost) > 1e-9 {
			t.Errorf("%v: no-checkpoint cost %g, Theorem-5 cost %g", m, pol.ExpectedCost, want.ExpectedCost)
		}
		if len(pol.Steps) != len(want.Sequence) {
			t.Fatalf("step count %d vs %d", len(pol.Steps), len(want.Sequence))
		}
		for i, st := range pol.Steps {
			if st.Checkpoint {
				t.Errorf("step %d checkpoints in never mode", i)
			}
			if math.Abs(st.Milestone-want.Sequence[i]) > 1e-12 {
				t.Errorf("step %d milestone %g vs %g", i, st.Milestone, want.Sequence[i])
			}
		}
	}
}

// TestFreeCheckpointsAlwaysHelp: with C = R = 0, checkpointing is free
// and the mixed optimum must not exceed the no-checkpoint optimum; for
// multi-step plans it is strictly better (failed work is never redone).
func TestFreeCheckpointsAlwaysHelp(t *testing.T) {
	d := disc(t, []float64{1, 2, 4, 8}, []float64{0.4, 0.3, 0.2, 0.1})
	m := core.ReservationOnly
	free := Params{}
	mixedPol, err := Solve(d, m, free)
	if err != nil {
		t.Fatal(err)
	}
	noPol, err := SolveNoCheckpoint(d, m, free)
	if err != nil {
		t.Fatal(err)
	}
	if mixedPol.ExpectedCost > noPol.ExpectedCost+1e-12 {
		t.Errorf("free checkpoints hurt: %g > %g", mixedPol.ExpectedCost, noPol.ExpectedCost)
	}
	if len(noPol.Steps) > 1 && mixedPol.ExpectedCost >= noPol.ExpectedCost {
		t.Errorf("free checkpoints not strictly better: %g vs %g", mixedPol.ExpectedCost, noPol.ExpectedCost)
	}
}

// TestExpensiveCheckpointsDegrade: as C grows the mixed optimum rises
// monotonically toward the no-checkpoint optimum and never exceeds it.
func TestExpensiveCheckpointsDegrade(t *testing.T) {
	d := disc(t, []float64{1, 3, 6, 10, 15}, []float64{0.35, 0.25, 0.2, 0.12, 0.08})
	m := core.CostModel{Alpha: 1, Beta: 0.3, Gamma: 0.5}
	noPol, err := SolveNoCheckpoint(d, m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, c := range []float64{0, 0.5, 2, 10, 1000} {
		pol, err := Solve(d, m, Params{C: c, R: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if pol.ExpectedCost < prev-1e-9 {
			t.Errorf("cost decreased with larger C: %g after %g", pol.ExpectedCost, prev)
		}
		if pol.ExpectedCost > noPol.ExpectedCost+1e-9 {
			t.Errorf("C=%g: mixed %g exceeds no-checkpoint %g", c, pol.ExpectedCost, noPol.ExpectedCost)
		}
		prev = pol.ExpectedCost
	}
	// At absurd C the mixed policy stops checkpointing entirely.
	pol, _ := Solve(d, m, Params{C: 1000, R: 0.5})
	for _, st := range pol.Steps {
		if st.Checkpoint {
			t.Errorf("policy checkpoints at C=1000: %+v", pol.Steps)
		}
	}
}

// TestAllCheckpointBracketsMixed: the mixed optimum is at most both
// pure strategies.
func TestAllCheckpointBracketsMixed(t *testing.T) {
	d := disc(t, []float64{2, 4, 7, 11, 16, 22}, []float64{0.3, 0.25, 0.18, 0.12, 0.09, 0.06})
	m := core.CostModel{Alpha: 1, Beta: 1, Gamma: 0.2}
	p := Params{C: 0.4, R: 0.3}
	mix, err := Solve(d, m, p)
	if err != nil {
		t.Fatal(err)
	}
	all, err := SolveAllCheckpoint(d, m, p)
	if err != nil {
		t.Fatal(err)
	}
	no, err := SolveNoCheckpoint(d, m, p)
	if err != nil {
		t.Fatal(err)
	}
	if mix.ExpectedCost > all.ExpectedCost+1e-9 || mix.ExpectedCost > no.ExpectedCost+1e-9 {
		t.Errorf("mixed %g not <= all %g and no %g", mix.ExpectedCost, all.ExpectedCost, no.ExpectedCost)
	}
	for i, st := range all.Steps {
		if i < len(all.Steps)-1 && !st.Checkpoint {
			t.Errorf("all-checkpoint step %d does not checkpoint", i)
		}
	}
}

// TestPolicyCostHandComputed verifies Policy.Cost against a hand
// computation.
func TestPolicyCostHandComputed(t *testing.T) {
	m := core.CostModel{Alpha: 1, Beta: 1, Gamma: 0}
	p := Params{C: 1, R: 0.5}
	pol := Policy{Steps: []Step{
		{Milestone: 4, Checkpoint: true, Length: 5},     // 4 work + 1 ckpt
		{Milestone: 10, Checkpoint: false, Length: 6.5}, // 0.5 restore + 6 work
	}}
	// Job of work 3: finishes in step 1. used = 3, L = 5.
	c, err := pol.Cost(m, p, 3)
	if err != nil || math.Abs(c-(5+3)) > 1e-12 {
		t.Errorf("cost(3) = %g, %v; want 8", c, err)
	}
	// Job of work 9: fails step 1 (pay 5+5), finishes step 2:
	// used = 0.5 + (9-4) = 5.5, L = 6.5 → 10 + 12 = 22.
	c, err = pol.Cost(m, p, 9)
	if err != nil || math.Abs(c-22) > 1e-12 {
		t.Errorf("cost(9) = %g, %v; want 22", c, err)
	}
	// Beyond coverage: infinite.
	if c, err := pol.Cost(m, p, 11); err == nil || !math.IsInf(c, 1) {
		t.Errorf("cost(11) = %g, %v", c, err)
	}
}

// TestSimulateMatchesExpectedCost: Monte-Carlo replay of the DP policy
// converges to its claimed expectation.
func TestSimulateMatchesExpectedCost(t *testing.T) {
	base := dist.MustLogNormal(1, 0.6)
	dd, err := discretize.Discretize(base, 60, 1e-6, discretize.EqualProbability)
	if err != nil {
		t.Fatal(err)
	}
	m := core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.2}
	p := Params{C: 0.3, R: 0.2}
	pol, err := Solve(dd, m, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := pol.Simulate(m, p, dd, 200000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-pol.ExpectedCost) > 0.02*pol.ExpectedCost {
		t.Errorf("simulated %g vs DP %g", got, pol.ExpectedCost)
	}
}

// TestCheckpointingBeatsTheorem5WhenRestartsAreCostly: the headline of
// the extension — for a long-tailed law with cheap checkpoints, the
// optimal checkpoint policy beats the best reservation-only sequence.
func TestCheckpointingBeatsTheorem5WhenRestartsAreCostly(t *testing.T) {
	base := dist.MustWeibull(1, 0.5) // heavy tail: failed work is expensive
	dd, err := discretize.Discretize(base, 80, 1e-6, discretize.EqualProbability)
	if err != nil {
		t.Fatal(err)
	}
	m := core.ReservationOnly
	p := Params{C: 0.05, R: 0.05}
	mix, err := Solve(dd, m, p)
	if err != nil {
		t.Fatal(err)
	}
	no, err := dp.Solve(dd, m)
	if err != nil {
		t.Fatal(err)
	}
	if !(mix.ExpectedCost < 0.95*no.ExpectedCost) {
		t.Errorf("checkpointing gains too small: %g vs %g", mix.ExpectedCost, no.ExpectedCost)
	}
	// And at least one step actually checkpoints.
	any := false
	for _, st := range mix.Steps {
		any = any || st.Checkpoint
	}
	if !any {
		t.Error("optimal policy never checkpoints despite cheap snapshots")
	}
}

func TestValidation(t *testing.T) {
	d := disc(t, []float64{1}, []float64{1})
	if _, err := Solve(nil, core.ReservationOnly, Params{}); err == nil {
		t.Error("nil distribution accepted")
	}
	if _, err := Solve(d, core.CostModel{}, Params{}); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := Solve(d, core.ReservationOnly, Params{C: -1}); err == nil {
		t.Error("negative C accepted")
	}
	if _, err := Solve(d, core.ReservationOnly, Params{R: math.Inf(1)}); err == nil {
		t.Error("infinite R accepted")
	}
	pol := Policy{Steps: []Step{{Milestone: 1, Length: 1}}}
	if _, err := pol.Simulate(core.ReservationOnly, Params{}, dist.MustUniform(0.1, 0.9), 0, 1); err == nil {
		t.Error("zero samples accepted")
	}
}

func TestSinglePointPolicy(t *testing.T) {
	d := disc(t, []float64{5}, []float64{1})
	m := core.CostModel{Alpha: 2, Beta: 1, Gamma: 3}
	pol, err := Solve(d, m, Params{C: 1, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pol.Steps) != 1 || pol.Steps[0].Checkpoint {
		t.Fatalf("steps = %+v", pol.Steps)
	}
	// Single reservation of length 5: 2·5 + 1·5 + 3 = 18.
	if math.Abs(pol.ExpectedCost-18) > 1e-12 {
		t.Errorf("cost = %g, want 18", pol.ExpectedCost)
	}
	if pol.Steps[0].Length != 5 {
		t.Errorf("reserved = %g, want 5", pol.Steps[0].Length)
	}
}

func TestPolicyStats(t *testing.T) {
	d := disc(t, []float64{1, 2.5, 4, 7}, []float64{0.4, 0.3, 0.2, 0.1})
	m := core.CostModel{Alpha: 1, Beta: 0.6, Gamma: 0.3}
	p := Params{C: 0.2, R: 0.15}
	pol, err := Solve(d, m, p)
	if err != nil {
		t.Fatal(err)
	}
	st, err := pol.Stats(m, p, d)
	if err != nil {
		t.Fatal(err)
	}
	// The re-derived expectation matches the DP's optimum.
	if math.Abs(st.ExpectedCost-pol.ExpectedCost) > 1e-9 {
		t.Errorf("stats cost %g vs DP %g", st.ExpectedCost, pol.ExpectedCost)
	}
	if st.ExpectedAttempts < 1 || st.ExpectedReserved <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.SnapshotProb < 0 || st.SnapshotProb > 1 {
		t.Errorf("snapshot prob %g", st.SnapshotProb)
	}
	// Monte-Carlo cross-check of the attempt count.
	// E[attempts] equals the sum of reach probabilities; verify against
	// the replay at large n.
	var attempts float64
	const n = 200000
	r := rng.New(9)
	for i := 0; i < n; i++ {
		v := dist.Sample(d, r)
		k := 0
		progress, have := 0.0, false
		_ = progress
		_ = have
		for _, stp := range pol.Steps {
			k++
			if v <= stp.Milestone {
				break
			}
		}
		attempts += float64(k)
	}
	if got := attempts / n; math.Abs(got-st.ExpectedAttempts) > 0.01*st.ExpectedAttempts {
		t.Errorf("MC attempts %g vs stats %g", got, st.ExpectedAttempts)
	}
	// Uncovered policy is rejected.
	bad := Policy{Steps: []Step{{Milestone: 2.5, Length: 2.5}}}
	if _, err := bad.Stats(m, p, d); err == nil {
		t.Error("uncovered policy accepted")
	}
}
