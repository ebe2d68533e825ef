package repro

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// TestPlannerMatchesMakePlan: every strategy produces the identical
// plan through the Planner and through MakePlan, on repeated passes.
func TestPlannerMatchesMakePlan(t *testing.T) {
	d, _ := LogNormal(3, 0.5)
	opts := Options{GridM: 300, DiscN: 200}
	pl, err := NewPlanner(ReservationOnly, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Strategies() {
		want, err := MakePlan(ReservationOnly, d, name, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := pl.Plan(d, name)
			if err != nil {
				t.Fatalf("%s pass %d: %v", name, pass, err)
			}
			if got.ExpectedCost != want.ExpectedCost || got.NormalizedCost != want.NormalizedCost {
				t.Errorf("%s pass %d: cost %g/%g, want %g/%g",
					name, pass, got.ExpectedCost, got.NormalizedCost, want.ExpectedCost, want.NormalizedCost)
			}
			if len(got.Reservations) != len(want.Reservations) {
				t.Fatalf("%s pass %d: %d reservations, want %d",
					name, pass, len(got.Reservations), len(want.Reservations))
			}
			for i := range got.Reservations {
				if got.Reservations[i] != want.Reservations[i] {
					t.Errorf("%s pass %d: reservation %d = %g, want %g",
						name, pass, i, got.Reservations[i], want.Reservations[i])
				}
			}
		}
	}
}

// TestPlannerMonteCarloReusesWorkload: repeated Monte-Carlo plans on
// one Planner redraw the same (SamplesN, Seed) workload and agree with
// MakePlan bit for bit on every pass.
func TestPlannerMonteCarloReusesWorkload(t *testing.T) {
	d, _ := Gamma(2, 2)
	opts := Options{GridM: 200, SamplesN: 500, Seed: 7, MonteCarlo: true}
	pl, err := NewPlanner(ReservationOnly, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MakePlan(ReservationOnly, d, StrategyBruteForce, opts)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 3; pass++ {
		got, err := pl.Plan(d, StrategyBruteForce)
		if err != nil {
			t.Fatal(err)
		}
		if got.ExpectedCost != want.ExpectedCost {
			t.Errorf("pass %d: cost %g, want %g", pass, got.ExpectedCost, want.ExpectedCost)
		}
	}
}

// TestPlannerDiscretizationCache: interleaving the two DP schemes on
// one Planner gives each scheme its own discretization, identical to
// MakePlan's on every pass.
func TestPlannerDiscretizationCache(t *testing.T) {
	d, _ := Weibull(1, 0.5)
	opts := Options{DiscN: 150}
	pl, err := NewPlanner(ReservationOnly, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{StrategyEqualProb, StrategyEqualTime, StrategyEqualProb} {
		want, err := MakePlan(ReservationOnly, d, name, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pl.Plan(d, name)
		if err != nil {
			t.Fatal(err)
		}
		if got.ExpectedCost != want.ExpectedCost {
			t.Errorf("%s: cost %g, want %g", name, got.ExpectedCost, want.ExpectedCost)
		}
	}
}

// TestPlannerUnspeccableDistribution: laws without a canonical spec
// plan correctly.
func TestPlannerUnspeccableDistribution(t *testing.T) {
	base, _ := LogNormal(1, 0.4)
	var samples []float64
	for i := 0; i < 500; i++ {
		samples = append(samples, base.Quantile((float64(i)+0.5)/500))
	}
	emp, err := Empirical(samples)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlanner(ReservationOnly, Options{GridM: 200})
	if err != nil {
		t.Fatal(err)
	}
	p, err := pl.Plan(emp, StrategyMeanDoubling)
	if err != nil {
		t.Fatal(err)
	}
	if p.NormalizedCost < 1 || math.IsNaN(p.NormalizedCost) {
		t.Errorf("normalized cost %g", p.NormalizedCost)
	}
}

// TestPlannerValidation: invalid cost models are rejected at
// construction, unknown strategies and bad specs at planning.
func TestPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(CostModel{}, Options{}); err == nil {
		t.Error("invalid model accepted")
	}
	pl, err := NewPlanner(ReservationOnly, Options{})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := Exponential(1)
	if _, err := pl.Plan(d, "nope"); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := pl.PlanSpec("weird(1)", StrategyMeanDoubling); err == nil {
		t.Error("bad spec accepted")
	}
	if p, err := pl.PlanSpec("uniform(10,20)", StrategyEqualProb); err != nil || p == nil {
		t.Errorf("PlanSpec failed: %v", err)
	}
}

// TestPlannerConcurrentUse: one Planner serving many goroutines mixing
// strategies and distributions produces exactly the sequential results.
func TestPlannerConcurrentUse(t *testing.T) {
	pl, err := NewPlanner(ReservationOnly, Options{GridM: 120, DiscN: 100})
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"exponential(1)", "uniform(10,20)", "lognormal(3,0.5)"}
	strategies := []string{StrategyBruteForce, StrategyEqualProb, StrategyMeanDoubling}
	type key struct{ spec, strat string }
	want := make(map[key]float64)
	for _, s := range specs {
		for _, st := range strategies {
			p, err := pl.PlanSpec(s, st)
			if err != nil {
				t.Fatalf("%s/%s: %v", s, st, err)
			}
			want[key{s, st}] = p.ExpectedCost
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := specs[g%len(specs)]
			st := strategies[(g/len(specs))%len(strategies)]
			p, err := pl.PlanSpec(s, st)
			if err != nil {
				errs <- err
				return
			}
			if p.ExpectedCost != want[key{s, st}] {
				errs <- errDrift{s, st, p.ExpectedCost, want[key{s, st}]}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// errDrift reports a concurrent result differing from the sequential one.
type errDrift struct {
	spec, strat string
	got, want   float64
}

func (e errDrift) Error() string {
	return e.spec + "/" + e.strat + ": concurrent cost differs from sequential"
}

// TestPlannerTailOverflowLaws: lognormal laws whose Eq.-(11) recurrence
// overflows to +Inf and then NaN a few reservations past the point
// where S(t) < 1e-10 plan under every strategy and both scoring modes.
// The preview stops at that point instead of validating the overflow,
// and the plan's closed-form and sampled evaluations still succeed.
func TestPlannerTailOverflowLaws(t *testing.T) {
	for _, spec := range []string{"lognormal(3,0.40315)", "lognormal(3,0.7760321568029569)"} {
		for _, mc := range []bool{false, true} {
			pl, err := NewPlanner(ReservationOnly, Options{MonteCarlo: mc})
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Strategies() {
				p, err := pl.PlanSpec(spec, name)
				if err != nil {
					t.Errorf("%s %s MonteCarlo=%v: %v", spec, name, mc, err)
					continue
				}
				if len(p.Reservations) == 0 {
					t.Errorf("%s %s MonteCarlo=%v: empty preview", spec, name, mc)
					continue
				}
				prev := 0.0
				for i, v := range p.Reservations {
					if math.IsInf(v, 0) || !(v > prev) {
						t.Errorf("%s %s MonteCarlo=%v: reservation %d = %g after %g", spec, name, mc, i, v, prev)
					}
					prev = v
				}
				if !(p.NormalizedCost >= 1) || math.IsInf(p.NormalizedCost, 0) {
					t.Errorf("%s %s MonteCarlo=%v: normalized cost %g", spec, name, mc, p.NormalizedCost)
				}
				if _, err := p.Stats(); err != nil {
					t.Errorf("%s %s MonteCarlo=%v: Stats: %v", spec, name, mc, err)
				}
				if _, err := p.CostQuantile(0.99); err != nil {
					t.Errorf("%s %s MonteCarlo=%v: CostQuantile: %v", spec, name, mc, err)
				}
				if _, _, err := p.CostFor(p.Reservations[len(p.Reservations)-1]); err != nil {
					t.Errorf("%s %s MonteCarlo=%v: CostFor: %v", spec, name, mc, err)
				}
				if _, _, err := p.Simulate(1000, 1); err != nil {
					t.Errorf("%s %s MonteCarlo=%v: Simulate: %v", spec, name, mc, err)
				}
			}
		}
	}
}

// TestPlanMaterializesSequenceOnce: Plan leaves the prefix its cost
// and preview walks generated on the plan's own sequence, so the
// evaluation methods copy it instead of re-running the generator; and
// each of them returns, bit for bit, what the same call returns on a
// freshly generated sequence of the same strategy.
func TestPlanMaterializesSequenceOnce(t *testing.T) {
	pl, err := NewPlanner(NeuroHPC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, d := range dist.Table1() {
		for _, name := range Strategies() {
			label := d.Name() + " " + name
			p, err := pl.Plan(d, name)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if n := len(p.Sequence().Materialized()); n < len(p.Reservations) {
				t.Errorf("%s: %d values materialized after Plan, want at least the %d-value preview",
					label, n, len(p.Reservations))
			}
			st, err := pl.opts.resolve(name)
			if err != nil {
				t.Fatal(err)
			}
			fresh := func() *core.Sequence {
				s, err := st.Sequence(pl.model, d)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return s
			}

			got, gerr := p.Stats()
			want, werr := core.Stats(pl.model, d, fresh())
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: Stats error %v, fresh %v", label, gerr, werr)
			}
			if !same(got.ExpectedCost, want.ExpectedCost) || !same(got.ExpectedAttempts, want.ExpectedAttempts) ||
				!same(got.ExpectedReserved, want.ExpectedReserved) || !same(got.ExpectedUsed, want.ExpectedUsed) ||
				!same(got.Utilization, want.Utilization) || len(got.AttemptProbs) != len(want.AttemptProbs) {
				t.Errorf("%s: Stats %+v, fresh %+v", label, got, want)
			}
			for i := range min(len(got.AttemptProbs), len(want.AttemptProbs)) {
				if !same(got.AttemptProbs[i], want.AttemptProbs[i]) {
					t.Errorf("%s: Stats AttemptProbs[%d] %v, fresh %v", label, i, got.AttemptProbs[i], want.AttemptProbs[i])
				}
			}

			for _, q := range []float64{0.01, 0.5, 0.99, 1 - 1e-9} {
				t0 := d.Quantile(q)
				gc, ga, gerr := p.CostFor(t0)
				wc, wa, werr := pl.model.RunCost(fresh(), t0)
				if !same(gc, wc) || ga != wa || (gerr == nil) != (werr == nil) {
					t.Errorf("%s: CostFor(%g) = %v, %d, %v; fresh %v, %d, %v", label, t0, gc, ga, gerr, wc, wa, werr)
				}
				gq, gerr := p.CostQuantile(q)
				wq, werr := core.CostQuantile(pl.model, d, fresh(), q)
				if !same(gq, wq) || (gerr == nil) != (werr == nil) {
					t.Errorf("%s: CostQuantile(%g) = %v, %v; fresh %v, %v", label, q, gq, gerr, wq, werr)
				}
			}
		}
	}
}
