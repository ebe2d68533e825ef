package dp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/dist"
	"repro/internal/rng"
)

// engineAlgos are the fast engines under test; AlgoScan is the
// reference they must match bit for bit.
var engineAlgos = []Algorithm{AlgoSMAWK}

// testModels spans the three cost-model families the experiments use.
var testModels = []core.CostModel{
	core.ReservationOnly,
	{Alpha: 1, Beta: 0.3, Gamma: 0.5},
	{Alpha: 0.95, Beta: 1, Gamma: 1.05},
}

// randomLaw draws a discrete law with n support points: strictly
// increasing values, and — depending on the seed — zero-mass interior
// points, zero-mass trailing points, and a truncated (1-ε) total mass,
// the shapes truncated discretizations produce.
func randomLaw(t *testing.T, r *rng.Source, n int) *dist.Discrete {
	t.Helper()
	vals := make([]float64, n)
	probs := make([]float64, n)
	cur := 0.0
	for i := range vals {
		cur += 0.1 + 3*r.Float64()
		vals[i] = cur
		probs[i] = 0.05 + r.Float64()
	}
	// Zero-mass interior points (law conditioned past them is still
	// well defined) and, sometimes, a zero-mass tail.
	if n >= 3 && r.Float64() < 0.5 {
		probs[1+int(r.Float64()*float64(n-2))] = 0
	}
	if n >= 2 && r.Float64() < 0.3 {
		probs[n-1] = 0
		if n >= 4 && r.Float64() < 0.5 {
			probs[n-2] = 0
		}
	}
	tot := 0.0
	for _, p := range probs {
		tot += p
	}
	if tot <= 0 {
		probs[0] = 1
		tot = 1
	}
	mass := 1.0
	if r.Float64() < 0.33 {
		mass = 0.95 // truncated discretization: total mass 1-ε
	}
	for i := range probs {
		probs[i] = probs[i] / tot * mass
	}
	d, err := dist.NewDiscrete(vals, probs)
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return d
}

// mustSolveWith is SolveWith with fatal error handling.
func mustSolveWith(t *testing.T, d *dist.Discrete, m core.CostModel, cfg Config) Result {
	t.Helper()
	r, err := SolveWith(d, m, cfg)
	if err != nil {
		t.Fatalf("SolveWith(%+v): %v", cfg, err)
	}
	return r
}

// assertBitIdentical fails unless two results agree bitwise: expected
// cost, sequence values and per-state choices.
func assertBitIdentical(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.ExpectedCost != want.ExpectedCost { //lint:ignore floatcmp identical DP arithmetic must agree bitwise
		t.Errorf("%s: cost %.17g != %.17g", label, got.ExpectedCost, want.ExpectedCost)
	}
	if len(got.Sequence) != len(want.Sequence) {
		t.Fatalf("%s: sequence %v != %v", label, got.Sequence, want.Sequence)
	}
	for i := range got.Sequence {
		if got.Sequence[i] != want.Sequence[i] { //lint:ignore floatcmp values are copied support points
			t.Errorf("%s: sequence[%d] = %g != %g", label, i, got.Sequence[i], want.Sequence[i])
		}
	}
	if len(got.Choices) != len(want.Choices) {
		t.Fatalf("%s: choices %v != %v", label, got.Choices, want.Choices)
	}
	for i := range got.Choices {
		if got.Choices[i] != want.Choices[i] {
			t.Errorf("%s: choices[%d] = %d != %d", label, i, got.Choices[i], want.Choices[i])
		}
	}
}

// TestEnginesMatchOracleSmallLaws is the seeded property sweep of the
// fast engines against the exponential oracle: random laws with n <= 14
// support points — including zero-mass interior/trailing points and
// truncated total mass — across the three cost-model families. Every
// engine (with per-row verification forced on) must agree with the
// default Solve bit for bit, and both must match the oracle's optimum.
func TestEnginesMatchOracleSmallLaws(t *testing.T) {
	for seed := uint64(0); seed < 120; seed++ {
		r := rng.New(seed)
		n := 1 + int(r.Float64()*14)
		d := randomLaw(t, r, n)
		for mi, m := range testModels {
			want := mustSolveWith(t, d, m, Config{Algo: AlgoScan})
			oracle, err := SolveBruteForce(d, m)
			if err != nil {
				t.Fatalf("seed %d: oracle: %v", seed, err)
			}
			if math.Abs(want.ExpectedCost-oracle.ExpectedCost) > 1e-9*(1+oracle.ExpectedCost) {
				t.Errorf("seed %d model %d: scan cost %g != oracle %g", seed, mi, want.ExpectedCost, oracle.ExpectedCost)
			}
			for _, algo := range engineAlgos {
				got := mustSolveWith(t, d, m, Config{Algo: algo, Verify: true})
				assertBitIdentical(t, fmt.Sprintf("seed %d model %d %v", seed, mi, algo), got, want)
			}
		}
	}
}

// TestEnginesMatchScanLargeLaws pins the engines to the reference scan
// on laws big enough to exercise deep recursion, including discretized
// lognormals (the experiment workload) and laws with zero-mass points.
func TestEnginesMatchScanLargeLaws(t *testing.T) {
	laws := []*dist.Discrete{}
	for _, n := range []int{130, 257, 512, 1000} {
		laws = append(laws, randomLaw(t, rng.New(uint64(n)), n))
	}
	ln := dist.MustLogNormal(3, 0.5)
	for _, n := range []int{256, 1000} {
		dd, err := discretize.Discretize(ln, n, 1e-7, discretize.EqualProbability)
		if err != nil {
			t.Fatal(err)
		}
		laws = append(laws, dd)
	}
	for li, d := range laws {
		for mi, m := range testModels {
			want := mustSolveWith(t, d, m, Config{Algo: AlgoScan})
			auto := mustSolveWith(t, d, m, Config{})
			assertBitIdentical(t, fmt.Sprintf("law %d model %d auto", li, mi), auto, want)
			for _, algo := range engineAlgos {
				got := mustSolveWith(t, d, m, Config{Algo: algo})
				assertBitIdentical(t, fmt.Sprintf("law %d model %d %v", li, mi, algo), got, want)
			}
		}
	}
}

// TestBudgetedEnginesMatchScan pins SolveMaxAttemptsWith across engines
// and budgets to the reference scan, bit for bit.
func TestBudgetedEnginesMatchScan(t *testing.T) {
	laws := []*dist.Discrete{
		randomLaw(t, rng.New(7), 300),
		randomLaw(t, rng.New(11), 150),
	}
	for li, d := range laws {
		n := d.Len()
		for mi, m := range testModels {
			for _, k := range []int{2, 3, 8, n} {
				want, err := SolveMaxAttemptsWith(d, m, k, Config{Algo: AlgoScan})
				if err != nil {
					t.Fatalf("law %d K=%d: %v", li, k, err)
				}
				for _, algo := range engineAlgos {
					got, err := SolveMaxAttemptsWith(d, m, k, Config{Algo: algo, Verify: true})
					if err != nil {
						t.Fatalf("law %d K=%d %v: %v", li, k, algo, err)
					}
					assertBitIdentical(t, fmt.Sprintf("law %d model %d K=%d %v", li, mi, k, algo), got, want)
				}
			}
		}
	}
}

// TestSetVerifyRowsMode drives the -dpverify debug switch end to end:
// with the process-wide mode on, the default Solve must still agree
// with the scan bitwise (every row cross-checked).
func TestSetVerifyRowsMode(t *testing.T) {
	SetVerifyRows(true)
	defer SetVerifyRows(false)
	d := randomLaw(t, rng.New(99), 400)
	for _, m := range testModels {
		want := mustSolveWith(t, d, m, Config{Algo: AlgoScan})
		got := mustSolveWith(t, d, m, Config{})
		assertBitIdentical(t, "dpverify", got, want)
	}
}

// syntheticSolver builds a monotoneSolver over an explicit entry
// function with all n rows active, committing into the returned E/J
// arrays — the injection seam for matrices real instances cannot
// produce.
func syntheticSolver(n int, at func(i, j int) float64) (*monotoneSolver, []float64, []int) {
	mx := newMonotoneSolver(n)
	for i := 0; i < n; i++ {
		mx.rows = append(mx.rows, i)
		mx.act[i] = true
	}
	E := make([]float64, n)
	J := make([]int, n)
	mx.at = at
	mx.commit = func(i int) { E[i], J[i] = mx.best[i], mx.bestJ[i] }
	mx.reset()
	return mx, E, J
}

// scanRows is the reference row scan over an explicit entry function:
// strict <, ascending j, so the smallest-j winner.
func scanRows(n int, at func(i, j int) float64) ([]float64, []int) {
	E := make([]float64, n)
	J := make([]int, n)
	for i := 0; i < n; i++ {
		bv, bj := math.Inf(1), -1
		for j := i; j < n; j++ {
			if c := at(i, j); c < bv {
				bv, bj = c, j
			}
		}
		E[i], J[i] = bv, bj
	}
	return E, J
}

// TestEnginesOnSyntheticTotallyMonotone exercises the engines on
// synthetic lines-family matrices M[i][j] = a_j + b_j·x_i with integer
// coefficients (exact arithmetic, so total monotonicity holds exactly)
// and nonincreasing slopes, including duplicated columns that force
// ties — the smallest-j tie-break must match the scan exactly.
func TestEnginesOnSyntheticTotallyMonotone(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 17, 40, 200}
	for seed := uint64(0); seed < 30; seed++ {
		r := rng.New(1000 + seed)
		for _, n := range sizes {
			a := make([]float64, n)
			b := make([]float64, n)
			slope := float64(1024 + int(r.Float64()*64))
			for j := 0; j < n; j++ {
				a[j] = float64(int(r.Float64() * 4096))
				slope -= float64(int(r.Float64() * 40))
				b[j] = slope
				if j > 0 && r.Float64() < 0.2 {
					a[j], b[j] = a[j-1], b[j-1] // duplicate column: forced tie
				}
			}
			x := make([]float64, n)
			cur := 0.0
			for i := 0; i < n; i++ {
				cur += float64(int(r.Float64() * 40))
				x[i] = cur
			}
			at := func(i, j int) float64 { return a[j] + b[j]*x[i] }
			wantE, wantJ := scanRows(n, at)
			for _, algo := range engineAlgos {
				mx, E, J := syntheticSolver(n, at)
				if !mx.run(true) {
					t.Fatalf("seed %d n=%d %v: gate tripped on an exactly monotone matrix", seed, n, algo)
				}
				for i := 0; i < n; i++ {
					//lint:ignore floatcmp exact integer arithmetic must agree bitwise
					if E[i] != wantE[i] || J[i] != wantJ[i] {
						t.Fatalf("seed %d n=%d %v row %d: got (%g,%d) want (%g,%d)",
							seed, n, algo, i, E[i], J[i], wantE[i], wantJ[i])
					}
				}
			}
		}
	}
}

// TestGateTripsAndFallbackIsExact is the non-monotone regression test:
// a matrix whose row argmins deliberately decrease (argmin near n-i)
// violates total monotonicity, so the gate must refuse the fast result
// and the production fallback — rerunning the reference scan — must
// return the exact row optima.
func TestGateTripsAndFallbackIsExact(t *testing.T) {
	const n = 64
	at := func(i, j int) float64 { return math.Abs(float64(j - (n - 1 - i))) }
	wantE, wantJ := scanRows(n, at)
	for _, algo := range engineAlgos {
		before := Fallbacks()
		mx, E, J := syntheticSolver(n, at)
		if mx.run(false) {
			t.Fatalf("%v: gate accepted a non-monotone matrix", algo)
		}
		if Fallbacks() != before+1 {
			t.Errorf("%v: fallback counter not incremented", algo)
		}
		// The production fallback path: discard the fast state and rerun
		// the reference scan (what SolveWith/SolveMaxAttemptsWith do).
		for i := 0; i < n; i++ {
			bv, bj := math.Inf(1), -1
			for j := i; j < n; j++ {
				if c := at(i, j); c < bv {
					bv, bj = c, j
				}
			}
			E[i], J[i] = bv, bj
		}
		for i := 0; i < n; i++ {
			//lint:ignore floatcmp the fallback is the scan, so exact equality is the contract
			if E[i] != wantE[i] || J[i] != wantJ[i] {
				t.Fatalf("%v row %d: fallback (%g,%d) != scan (%g,%d)", algo, i, E[i], J[i], wantE[i], wantJ[i])
			}
		}
	}
}

// TestVerifyAllCatchesCorruptedRow: the -dpverify cross-check must
// reject a fast result whose stored winner was tampered with, even when
// the cheap gate cannot see the difference.
func TestVerifyAllCatchesCorruptedRow(t *testing.T) {
	d := randomLaw(t, rng.New(5), 200)
	m := testModels[1]
	// Rebuild the solver state by hand (white box) to tamper with it.
	n := d.Len()
	vals := d.Values()
	raw := d.Probs()
	total := d.Total()
	probs := make([]float64, n)
	for i := range raw {
		probs[i] = raw[i] / total
	}
	S := make([]float64, n+1)
	W := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		S[i] = S[i+1] + probs[i]
		W[i] = W[i+1] + probs[i]*vals[i]
	}
	E := make([]float64, n+1)
	choice := make([]int, n+1)
	mx := newMonotoneSolver(n)
	for i := 0; i < n; i++ {
		if S[i] > 0 {
			mx.rows = append(mx.rows, i)
			mx.act[i] = true
		}
	}
	mx.at = func(i, j int) float64 { return entryCost(m, vals, S, W, E, i, j) }
	mx.commit = func(i int) { E[i], choice[i] = mx.best[i], mx.bestJ[i] }
	mx.reset()
	if !mx.run(true) {
		t.Fatal("fast path rejected a real instance")
	}
	// Corrupt one row's stored value by an ulp-scale nudge.
	mid := mx.rows[len(mx.rows)/2]
	mx.best[mid] = math.Nextafter(mx.best[mid], math.Inf(1))
	if mx.verifyAll() {
		t.Error("verifyAll accepted a corrupted row value")
	}
}

// TestDPRowKernelAllocsZero pins the fast-path row kernels to zero
// allocations per solve pass: scratch is preallocated by
// newMonotoneSolver, and the engines, gate and verifier reuse it.
func TestDPRowKernelAllocsZero(t *testing.T) {
	d := randomLaw(t, rng.New(21), 512)
	m := testModels[1]
	n := d.Len()
	vals := d.Values()
	raw := d.Probs()
	total := d.Total()
	probs := make([]float64, n)
	for i := range raw {
		probs[i] = raw[i] / total
	}
	S := make([]float64, n+1)
	W := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		S[i] = S[i+1] + probs[i]
		W[i] = W[i+1] + probs[i]*vals[i]
	}
	E := make([]float64, n+1)
	choice := make([]int, n+1)
	mx := newMonotoneSolver(n)
	for i := 0; i < n; i++ {
		if S[i] > 0 {
			mx.rows = append(mx.rows, i)
			mx.act[i] = true
		}
	}
	mx.at = func(i, j int) float64 { return entryCost(m, vals, S, W, E, i, j) }
	mx.commit = func(i int) { E[i], choice[i] = mx.best[i], mx.bestJ[i] }
	for _, algo := range engineAlgos {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			run := func() {
				mx.reset()
				mx.cdq(0, n)
				if !mx.gate() {
					t.Fatal("gate tripped on a real instance")
				}
			}
			run() // warm-up outside the measurement
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Errorf("%v row kernel: %v allocs/run, want 0", algo, allocs)
			}
		})
	}
	t.Run("verify", func(t *testing.T) {
		mx.reset()
		mx.cdq(0, n)
		if allocs := testing.AllocsPerRun(10, func() {
			if !mx.verifyAll() {
				t.Fatal("verifyAll rejected a consistent solve")
			}
		}); allocs != 0 {
			t.Errorf("verifyAll: %v allocs/run, want 0", allocs)
		}
	})
}
