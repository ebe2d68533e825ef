package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
)

// costCursorModels are the three cost-model scenarios the parity
// property probes: the paper's RESERVATIONONLY instance, the NeuroHPC
// affine model (§5.3), and a mixed model with fractional β and small γ.
var costCursorModels = []CostModel{
	ReservationOnly,
	{Alpha: 0.95, Beta: 1, Gamma: 1.05},
	{Alpha: 1, Beta: 0.5, Gamma: 0.1},
}

// parityLaws are the laws of the parity tests against the oracle:
// every Table-1 law plus a lognormal(3, σ) sweep that includes the two
// recorded tail-overflow laws.
func parityLaws() []dist.Distribution {
	laws := dist.Table1()
	for _, sigma := range []float64{0.1, 0.25, 0.40315, 0.55, 0.7760321568029569, 0.95, 1.2, 1.45} {
		laws = append(laws, dist.MustLogNormal(3, sigma))
	}
	return laws
}

// parityFracs place first reservations across a search interval,
// including its ends and a point beyond it (clamped on bounded
// support).
var parityFracs = []float64{0.003, 0.01, 0.05, 0.12, 0.2, 0.33, 0.5, 0.61, 0.75, 0.9, 1.0, 1.3}

// sameResult reports whether two (value, error) results are
// Float64bits-equal with the same error.
func sameResult(a float64, errA error, b float64, errB error) bool {
	return errA == errB && math.Float64bits(a) == math.Float64bits(b)
}

// checkBudgets compares got's CostBudget with the oracle cursor's over
// an unbounded budget and finite budgets around the exact cost: value
// bits, the pruned flag and the error must all agree.
func checkBudgets(t *testing.T, what string, t1 float64, got func(t1, budget float64) (float64, bool, error), want func(t1, budget float64) (float64, bool, error)) {
	t.Helper()
	exact, _, _ := want(t1, math.Inf(1))
	for _, budget := range []float64{math.Inf(1), exact, exact * 0.9, exact * 0.3, 1} {
		w, wp, errW := want(t1, budget)
		g, gp, errG := got(t1, budget)
		if !sameResult(w, errW, g, errG) || wp != gp {
			t.Fatalf("%s t1=%g budget=%g: oracle (%.17g, %v, %v), cursor (%.17g, %v, %v)",
				what, t1, budget, w, wp, errW, g, gp, errG)
		}
	}
}

// TestCostCursorMatchesExpectedCost is the equivalence property behind
// the analytic fast path: across the parity laws, the three cost-model
// scenarios, a sweep of first reservations and both tail rules, the
// fused cursor must reproduce the oracle's fused CostBudget (finite and
// unbounded budgets, with the pruned flag) and ExpectedCost over the
// oracle's materialized sequence — same bits, same errors.
func TestCostCursorMatchesExpectedCost(t *testing.T) {
	for _, m := range costCursorModels {
		for _, d := range parityLaws() {
			lo, _ := d.Support()
			hi := BoundFirstReservation(m, d)
			for _, tailEps := range []float64{0, DefaultTailEps} {
				cur := NewCostCursor(m, d, tailEps) // one cursor across all candidates
				oracle := newOracleCostCursor(m, d, tailEps)
				what := fmt.Sprintf("%s %v eps=%g", d.Name(), m, tailEps)
				for _, frac := range parityFracs {
					t1 := lo + (hi-lo)*frac
					want, errWant := ExpectedCost(m, d, oracleSequenceFromFirstTail(m, d, t1, tailEps))
					got, errGot := cur.Cost(t1)
					if !sameResult(want, errWant, got, errGot) {
						t.Fatalf("%s t1=%g: ExpectedCost (%.17g, %v), cursor (%.17g, %v)", what, t1, want, errWant, got, errGot)
					}
					checkBudgets(t, what, t1, cur.CostBudget, oracle.CostBudget)
				}
			}
		}
	}
}

// TestExpectedCostUncoveredFinite: a finite explicit sequence ending
// below the distribution's effective support scores +Inf.
func TestExpectedCostUncoveredFinite(t *testing.T) {
	d := dist.MustLogNormal(3, 0.5)
	s, err := NewExplicitSequence(d.Quantile(0.25), d.Quantile(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ExpectedCost(ReservationOnly, d, s); err != nil || !math.IsInf(got, 1) {
		t.Fatalf("ExpectedCost = %g, %v; want +Inf", got, err)
	}
}

// TestCostCursorBudgetAbortResume: the early abort must return an
// admissible lower bound strictly above the budget, and the cursor
// must be immediately reusable afterwards — the next call (exact or
// budgeted) starts a fresh candidate and reproduces a fresh cursor's
// result bitwise.
func TestCostCursorBudgetAbortResume(t *testing.T) {
	for _, m := range costCursorModels {
		for _, d := range []dist.Distribution{
			dist.MustLogNormal(3, 0.5),
			dist.MustExponential(1),
			dist.MustGamma(2, 2),
		} {
			lo, _ := d.Support()
			hi := BoundFirstReservation(m, d)
			cur := NewCostCursor(m, d, DefaultTailEps)
			t1 := lo + (hi-lo)*0.4
			exact, err := cur.Cost(t1)
			if err != nil || math.IsInf(exact, 1) || math.IsNaN(exact) {
				t.Fatalf("%s %v: exact cost = %g, %v", d.Name(), m, exact, err)
			}
			// A budget below the β·E[X] floor aborts on the very first
			// term; any budget below the exact cost aborts somewhere.
			for _, budget := range []float64{exact * 0.1, exact * 0.5, exact * 0.99} {
				partial, pruned, err := cur.CostBudget(t1, budget)
				if err != nil {
					t.Fatalf("%s budget=%g: %v", d.Name(), budget, err)
				}
				if !pruned {
					t.Fatalf("%s budget=%g < exact %g: not pruned", d.Name(), budget, exact)
				}
				if !(partial > budget) {
					t.Errorf("%s: pruned partial %g not above budget %g", d.Name(), partial, budget)
				}
				if partial > exact {
					t.Errorf("%s: partial %g exceeds exact cost %g — not a lower bound", d.Name(), partial, exact)
				}
				// Resume: the abort left no state behind.
				again, err := cur.Cost(t1)
				if err != nil {
					t.Fatal(err)
				}
				if again != exact { //lint:ignore floatcmp reuse after abort must be bit-identical
					t.Errorf("%s: cost after abort %.17g != %.17g", d.Name(), again, exact)
				}
			}
			// A budget at exactly the final cost must NOT abort: the
			// partial sums never strictly exceed the final value, so the
			// winner of a scan survives a tie with the incumbent.
			full, pruned, err := cur.CostBudget(t1, exact)
			if err != nil || pruned {
				t.Errorf("%s: budget=exact pruned=%v err=%v; want exact completion", d.Name(), pruned, err)
			} else if full != exact { //lint:ignore floatcmp parity test
				t.Errorf("%s: budget=exact cost %.17g != %.17g", d.Name(), full, exact)
			}
		}
	}
}

// TestCostCursorPrunesFrom: once PrunesFrom holds at a grid point,
// CostBudget prunes every later point of the ascending grid against
// that budget and any lower one; a convex cursor never allows a stop.
func TestCostCursorPrunesFrom(t *testing.T) {
	const grid = 80
	fired := 0
	for _, m := range costCursorModels {
		for _, d := range parityLaws() {
			lo, _ := d.Support()
			hi := BoundFirstReservation(m, d)
			cur := NewCostCursor(m, d, DefaultTailEps)
			for _, budget := range []float64{m.Beta*d.Mean() + m.Alpha*(lo+hi)/2 + m.Gamma, m.Beta*d.Mean() + m.Alpha*hi + m.Gamma} {
				for i := 0; i < grid; i++ {
					t1 := lo + (hi-lo)*float64(i+1)/grid
					if !cur.PrunesFrom(t1, budget) {
						continue
					}
					fired++
					for j := i; j < grid; j++ {
						for _, b := range []float64{budget, budget / 2} {
							if _, pruned, err := cur.CostBudget(lo+(hi-lo)*float64(j+1)/grid, b); !pruned || err != nil {
								t.Fatalf("%s %v: PrunesFrom(%g, %g) but point %d not pruned at budget %g (%v)",
									d.Name(), m, t1, budget, j, b, err)
							}
						}
					}
					break
				}
			}
			convex := NewConvexCostCursor(AffineCost{Alpha: m.Alpha, Gamma: m.Gamma}, m.Beta, d, DefaultTailEps)
			if convex.PrunesFrom(hi, 0) {
				t.Errorf("%s: convex cursor allowed an early stop", d.Name())
			}
		}
	}
	if fired == 0 {
		t.Error("PrunesFrom never held")
	}
}

// TestCostCursorInvalidCandidates: candidates whose recurrence breaks
// down must fail identically on both paths (ErrNonIncreasing), and the
// cursor must remain usable after the failure.
func TestCostCursorInvalidCandidates(t *testing.T) {
	d := dist.MustUniform(10, 20)
	m := ReservationOnly
	cur := NewCostCursor(m, d, 0) // strict rule: interior candidates break down
	if _, err := cur.Cost(11); !errors.Is(err, ErrNonIncreasing) {
		t.Errorf("interior strict candidate: err = %v, want ErrNonIncreasing", err)
	}
	// t1 = 0 is rejected like the materialized path.
	if _, err := cur.Cost(0); !errors.Is(err, ErrNonIncreasing) {
		t.Errorf("t1=0: err = %v, want ErrNonIncreasing", err)
	}
	// Still usable: t1 >= b clamps to the single covering reservation.
	cost, err := cur.Cost(25)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExpectedCost(m, d, SequenceFromFirstTail(m, d, 25, 0))
	if err != nil {
		t.Fatal(err)
	}
	if cost != want { //lint:ignore floatcmp parity test
		t.Errorf("clamped candidate: %.17g != %.17g", cost, want)
	}
}

// TestConvexCostCursorMatchesExpectedCostConvex: under an affine and
// a strictly convex G, β in {0, 0.5, 1} and both tail rules, the
// convex walk must reproduce the oracle's Eq.-(37) sequence value for
// value, and the convex cursor must reproduce ExpectedCostConvex over
// that sequence and the oracle's fused convex CostBudget — same bits,
// same errors, same pruned flag.
func TestConvexCostCursorMatchesExpectedCostConvex(t *testing.T) {
	costs := []ConvexCost{
		QuadraticCost{A: 0.1, B: 1, C: 0.5},
		AffineCost{Alpha: 1, Gamma: 0.2},
	}
	for _, g := range costs {
		for _, beta := range []float64{0, 0.5, 1} {
			for _, d := range parityLaws() {
				lo, _ := d.Support()
				upper := lo + 10*d.Mean()
				for _, tailEps := range []float64{0, DefaultTailEps} {
					cur := NewConvexCostCursor(g, beta, d, tailEps)
					oracle := newOracleConvexCostCursor(g, beta, d, tailEps)
					what := fmt.Sprintf("%s g=%#v β=%g eps=%g", d.Name(), g, beta, tailEps)
					for _, frac := range parityFracs {
						t1 := lo + (upper-lo)*frac
						s := oracleSequenceFromFirstConvexTail(g, beta, d, t1, tailEps)
						sc := SequenceFromFirstConvexTail(g, beta, d, t1, tailEps).Cursor()
						checkSequence(t, what, t1, &sc, s.Clone())
						want, errWant := ExpectedCostConvex(g, beta, d, s)
						got, errGot := cur.Cost(t1)
						if !sameResult(want, errWant, got, errGot) {
							t.Fatalf("%s t1=%g: reference (%.17g, %v), cursor (%.17g, %v)", what, t1, want, errWant, got, errGot)
						}
						checkBudgets(t, what, t1, cur.CostBudget, oracle.CostBudget)
					}
				}
			}
		}
	}
}

// TestCostCursorRejectsNonpositiveFirst: a first reservation that is
// not positive does not increase from t_0 = 0, so both cursor
// constructors reject it with ErrNonIncreasing — as ExpectedCost over
// the materialized sequence does.
func TestCostCursorRejectsNonpositiveFirst(t *testing.T) {
	for _, d := range []dist.Distribution{dist.MustExponential(1), dist.MustUniform(0, 1), dist.MustLogNormal(3, 0.5)} {
		for _, cur := range []CostCursor{
			NewCostCursor(ReservationOnly, d, DefaultTailEps),
			NewConvexCostCursor(QuadraticCost{A: 0.1, B: 1}, 0.5, d, DefaultTailEps),
		} {
			for _, t1 := range []float64{0, -1, math.NaN()} {
				if _, err := ExpectedCost(ReservationOnly, d, SequenceFromFirstTail(ReservationOnly, d, t1, DefaultTailEps)); !errors.Is(err, ErrNonIncreasing) {
					t.Errorf("%s t1=%g: ExpectedCost err = %v, want ErrNonIncreasing", d.Name(), t1, err)
				}
				if _, err := cur.Cost(t1); !errors.Is(err, ErrNonIncreasing) {
					t.Errorf("%s t1=%g: Cost err = %v, want ErrNonIncreasing", d.Name(), t1, err)
				}
				if _, pruned, err := cur.CostBudget(t1, 1e-9); pruned || !errors.Is(err, ErrNonIncreasing) {
					t.Errorf("%s t1=%g: CostBudget pruned=%v err=%v, want ErrNonIncreasing", d.Name(), t1, pruned, err)
				}
			}
		}
	}
}

// TestCostCursorConcurrent exercises the cursor's concurrency
// contract under the race detector: a CostCursor is immutable after
// construction (all per-call state is local), so one instance shared
// by many goroutines — mixing exact, budgeted and aborted calls — must
// produce identical results everywhere.
func TestCostCursorConcurrent(t *testing.T) {
	d := dist.MustGamma(2, 2)
	m := CostModel{Alpha: 0.95, Beta: 1, Gamma: 1.05}
	lo, _ := d.Support()
	hi := BoundFirstReservation(m, d)
	shared := NewCostCursor(m, d, DefaultTailEps)

	const goroutines = 16
	const candidates = 64
	want := make([]float64, candidates)
	for i := range want {
		t1 := lo + (hi-lo)*float64(i+1)/float64(candidates)
		c, err := shared.Cost(t1)
		if err != nil {
			c = math.NaN()
		}
		want[i] = c
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < candidates; i++ {
				t1 := lo + (hi-lo)*float64(i+1)/float64(candidates)
				// Interleave aborted calls to stress the reuse path.
				if (g+i)%3 == 0 {
					if _, _, err := shared.CostBudget(t1, want[i]/2); err != nil {
						return
					}
				}
				c, err := shared.Cost(t1)
				if err != nil {
					c = math.NaN()
				}
				if c != want[i] && !(math.IsNaN(c) && math.IsNaN(want[i])) { //lint:ignore floatcmp parity test
					errs[g] = errors.New("concurrent result diverged from serial result")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// Cost returns the exact expected cost of the candidate with first
// reservation t1 — for an affine cursor the same value (bitwise) as
// ExpectedCost(m, d, SequenceFromFirstTail(m, d, t1, tailEps)), with
// +Inf for an uncovered sequence and the same sequence errors.
func (c *CostCursor) Cost(t1 float64) (float64, error) {
	cost, _, err := c.CostBudget(t1, math.Inf(1))
	return cost, err
}
