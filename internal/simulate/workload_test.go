package simulate

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

var workloadModels = []core.CostModel{
	core.ReservationOnly,
	{Alpha: 0.95, Beta: 1, Gamma: 1.05},
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return 0
	}
	return math.Abs(a-b) / scale
}

// TestWorkloadMatchesCostOnSamples is the equivalence property behind
// the fast path: on every paper distribution, for several seeds, first
// reservations and both cost models, the prefix-sum scorer must
// reproduce the per-sample Eq.-(13) average of CostOnSamples to within
// 1e-12 relative (the two regroup the same products, so the observed
// agreement is ~1e-14).
func TestWorkloadMatchesCostOnSamples(t *testing.T) {
	const n = 400
	for _, m := range workloadModels {
		for _, d := range dist.Table1() {
			lo, _ := d.Support()
			hi := core.BoundFirstReservation(m, d)
			for _, seed := range []uint64{1, 7, 42} {
				samples := Samples(d, n, seed)
				wl := NewWorkload(samples)
				for _, frac := range []float64{0.05, 0.3, 0.6, 0.95} {
					t1 := lo + (hi-lo)*frac
					s := core.SequenceFromFirstTail(m, d, t1, core.DefaultTailEps)

					ref, errRef := CostOnSamples(m, s, samples, 1)
					got, errGot := wl.CostSequence(m, s)
					if (errRef == nil) != (errGot == nil) {
						t.Fatalf("%s seed=%d t1=%g: CostOnSamples err %v, Workload err %v",
							d.Name(), seed, t1, errRef, errGot)
					}
					if errRef != nil {
						continue
					}
					if rd := relDiff(ref.Mean, got); rd > 1e-12 {
						t.Errorf("%s %v seed=%d t1=%g: mean %.17g vs %.17g (rel %.3g)",
							d.Name(), m, seed, t1, ref.Mean, got, rd)
					}

					// The recurrence cursor runs the same attempt loop, so
					// its total is bitwise identical to the sequence path.
					cur := core.NewRecurrenceCursor(m, d, t1, core.DefaultTailEps)
					viaCur, pruned, err := wl.Cost(m, &cur, math.Inf(1))
					if err != nil || pruned || viaCur != got {
						t.Errorf("%s seed=%d t1=%g: cursor path (%.17g, %v) != sequence path %.17g",
							d.Name(), seed, t1, viaCur, err, got)
					}
				}
			}
		}
	}
}

// TestWorkloadUncovered: a finite sequence ending below the largest
// sample must fail with core.ErrUncovered on both paths.
func TestWorkloadUncovered(t *testing.T) {
	m := core.ReservationOnly
	samples := Samples(dist.MustLogNormal(3, 0.5), 100, 42)
	maxS := 0.0
	for _, x := range samples {
		maxS = math.Max(maxS, x)
	}
	s, err := core.NewExplicitSequence(maxS/4, maxS/2)
	if err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(samples)
	if _, err := CostOnSamples(m, s, samples, 1); !errors.Is(err, core.ErrUncovered) {
		t.Errorf("CostOnSamples err = %v, want ErrUncovered", err)
	}
	if _, err := wl.CostSequence(m, s); !errors.Is(err, core.ErrUncovered) {
		t.Errorf("Workload.CostSequence err = %v, want ErrUncovered", err)
	}
}

// TestWorkloadSingleAttempt: a first reservation at or above the
// largest sample covers every run in one attempt, and the mean reduces
// to the closed form α·t1 + γ + β·mean(X).
func TestWorkloadSingleAttempt(t *testing.T) {
	m := core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.1}
	samples := Samples(dist.MustWeibull(10, 2), 250, 9)
	maxS, sum := 0.0, 0.0
	for _, x := range samples {
		maxS = math.Max(maxS, x)
		sum += x
	}
	t1 := maxS + 1
	s, err := core.NewExplicitSequence(t1)
	if err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(samples)
	want := m.Alpha*t1 + m.Gamma + m.Beta*sum/float64(len(samples))

	got, err := wl.CostSequence(m, s)
	if err != nil {
		t.Fatal(err)
	}
	if rd := relDiff(want, got); rd > 1e-12 {
		t.Errorf("mean = %.17g, want %.17g (rel %.3g)", got, want, rd)
	}
	ref, err := CostOnSamples(m, s, samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rd := relDiff(ref.Mean, got); rd > 1e-12 {
		t.Errorf("workload %.17g vs CostOnSamples %.17g", got, ref.Mean)
	}
}

// TestWorkloadEmpty: scoring an empty workload is an error, not a
// silent zero.
func TestWorkloadEmpty(t *testing.T) {
	wl := NewWorkload(nil)
	s, err := core.NewExplicitSequence(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.CostSequence(core.ReservationOnly, s); err == nil {
		t.Error("CostSequence on empty workload: want error")
	}
}

// TestWorkloadCostBudget pins the budget of Workload.Cost: a +Inf
// budget reproduces the unbudgeted value of the sequence path bit for
// bit; a
// candidate whose exact cost is <= budget is never pruned and keeps its
// exact value; and a pruned partial mean lies strictly above the
// budget and at or below the exact cost.
func TestWorkloadCostBudget(t *testing.T) {
	models := append(workloadModels, core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 0.1})
	pruned := 0
	for _, m := range models {
		for _, d := range dist.Table1() {
			wl := NewWorkload(Samples(d, 300, 5))
			lo, _ := d.Support()
			hi := core.BoundFirstReservation(m, d)
			cur := core.NewRecurrenceCursor(m, d, 0, core.DefaultTailEps)
			for _, frac := range []float64{0.01, 0.1, 0.3, 0.6, 0.95, 1} {
				t1 := lo + (hi-lo)*frac
				cur.Reset(t1)
				exact, p, errExact := wl.Cost(m, &cur, math.Inf(1))
				if p {
					t.Fatalf("%s t1=%g: +Inf budget pruned", d.Name(), t1)
				}
				if errExact == nil {
					seq, err := wl.CostSequence(m, core.SequenceFromFirstTail(m, d, t1, core.DefaultTailEps))
					if err != nil || math.Float64bits(seq) != math.Float64bits(exact) {
						t.Fatalf("%s t1=%g: +Inf budget %.17g, sequence path %.17g (%v)", d.Name(), t1, exact, seq, err)
					}
				}
				for _, scale := range []float64{0, 0.5, 0.9, 0.999, 1, 1.001, 2} {
					budget := exact * scale
					if errExact != nil {
						budget = scale * (m.Alpha*hi + m.Gamma)
					}
					cur.Reset(t1)
					got, p, err := wl.Cost(m, &cur, budget)
					switch {
					case p:
						pruned++
						if err != nil || !(got > budget) || (errExact == nil && !(got <= exact)) {
							t.Errorf("%s %v t1=%g budget=%g: pruned partial %.17g (%v), exact %.17g",
								d.Name(), m, t1, budget, got, err, exact)
						}
						if errExact == nil && exact <= budget {
							t.Errorf("%s %v t1=%g: exact %.17g <= budget %.17g but pruned", d.Name(), m, t1, exact, budget)
						}
					case errExact != nil:
						if err == nil || err.Error() != errExact.Error() {
							t.Errorf("%s t1=%g budget=%g: err %v, want %v", d.Name(), t1, budget, err, errExact)
						}
					case err != nil || math.Float64bits(got) != math.Float64bits(exact):
						t.Errorf("%s %v t1=%g budget=%g: unpruned %.17g (%v), exact %.17g",
							d.Name(), m, t1, budget, got, err, exact)
					}
				}
			}
		}
	}
	if pruned == 0 {
		t.Error("no candidate was pruned")
	}
}

// TestWorkloadPrunesFrom: once PrunesFrom holds at t1, Cost prunes
// every later first reservation against that budget and any lower one.
func TestWorkloadPrunesFrom(t *testing.T) {
	fired := 0
	for _, m := range workloadModels {
		for _, d := range dist.Table1() {
			wl := NewWorkload(Samples(d, 200, 3))
			lo, _ := d.Support()
			hi := core.BoundFirstReservation(m, d)
			cur := core.NewRecurrenceCursor(m, d, 0, core.DefaultTailEps)
			const grid = 60
			for _, budget := range []float64{0.5 * (m.Alpha*lo + m.Gamma), m.Alpha*(lo+hi)/2 + m.Gamma, m.Alpha*hi + m.Gamma} {
				for i := 0; i < grid; i++ {
					t1 := lo + (hi-lo)*float64(i+1)/grid
					if !wl.PrunesFrom(m, t1, budget) {
						continue
					}
					fired++
					for j := i; j < grid; j++ {
						for _, b := range []float64{budget, budget / 2} {
							cur.Reset(lo + (hi-lo)*float64(j+1)/grid)
							if _, p, err := wl.Cost(m, &cur, b); !p || err != nil {
								t.Fatalf("%s %v: PrunesFrom(%g, %g) but point %d not pruned at budget %g (%v)",
									d.Name(), m, t1, budget, j, b, err)
							}
						}
					}
					break
				}
			}
		}
	}
	if fired == 0 {
		t.Error("PrunesFrom never held")
	}
}

// TestWorkloadCostBudgetAllocs: the budgeted call, pruning or not,
// allocates nothing.
func TestWorkloadCostBudgetAllocs(t *testing.T) {
	d := dist.MustLogNormal(3, 0.5)
	m := core.ReservationOnly
	wl := NewWorkload(Samples(d, 1000, 1))
	lo, _ := d.Support()
	hi := core.BoundFirstReservation(m, d)
	rc := core.NewRecurrenceCursor(m, d, 0, core.DefaultTailEps)
	var cur core.Cursor = &rc
	budget := m.Alpha * (lo + hi) / 2
	if n := testing.AllocsPerRun(100, func() {
		for k := 4; k < 12; k++ {
			rc.Reset(lo + (hi-lo)*float64(k)/16)
			_, _, _ = wl.Cost(m, cur, budget)
		}
	}); n != 0 {
		t.Errorf("budgeted Workload.Cost allocates %.1f per scan, want 0", n)
	}
}
