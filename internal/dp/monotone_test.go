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

// Values of solve's queueFrom that force one engine: the queue pass
// for every support size, or the reference scan the queue must match
// bit for bit.
const (
	forceQueue = 0
	forceScan  = math.MaxInt
)

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

// mustSolve is solve with fatal error handling.
func mustSolve(t *testing.T, d *dist.Discrete, m core.CostModel, queueFrom int) Result {
	t.Helper()
	r, err := solve(d, m, queueFrom)
	if err != nil {
		t.Fatalf("solve(queueFrom %d): %v", queueFrom, err)
	}
	return r
}

// mustSolveMaxAttempts is solveMaxAttempts with fatal error handling.
func mustSolveMaxAttempts(t *testing.T, d *dist.Discrete, m core.CostModel, k, queueFrom int) Result {
	t.Helper()
	r, err := solveMaxAttempts(d, m, k, queueFrom)
	if err != nil {
		t.Fatalf("solveMaxAttempts(K=%d, queueFrom %d): %v", k, queueFrom, err)
	}
	return r
}

// mustLaw is newLaw with fatal error handling.
func mustLaw(t *testing.T, d *dist.Discrete, m core.CostModel, queueFrom int) law {
	t.Helper()
	l, err := newLaw(d, m, queueFrom)
	if err != nil {
		t.Fatal(err)
	}
	return l
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
// queue pass against the exponential oracle: random laws with n <= 14
// support points — including zero-mass interior/trailing points and
// truncated total mass — across the three cost-model families. The
// forced queue must agree with the forced scan bit for bit, and the
// scan must match the oracle's optimum.
func TestEnginesMatchOracleSmallLaws(t *testing.T) {
	for seed := uint64(0); seed < 120; seed++ {
		r := rng.New(seed)
		n := 1 + int(r.Float64()*14)
		d := randomLaw(t, r, n)
		for mi, m := range testModels {
			want := mustSolve(t, d, m, forceScan)
			oracle, err := SolveBruteForce(d, m)
			if err != nil {
				t.Fatalf("seed %d: oracle: %v", seed, err)
			}
			if math.Abs(want.ExpectedCost-oracle.ExpectedCost) > 1e-9*(1+oracle.ExpectedCost) {
				t.Errorf("seed %d model %d: scan cost %g != oracle %g", seed, mi, want.ExpectedCost, oracle.ExpectedCost)
			}
			got := mustSolve(t, d, m, forceQueue)
			assertBitIdentical(t, fmt.Sprintf("seed %d model %d queue", seed, mi), got, want)
		}
	}
}

// TestEnginesMatchScanLargeLaws pins Solve and the forced queue to the
// reference scan on laws big enough to exercise deep recursion,
// including discretized lognormals (the experiment workload) and laws
// with zero-mass points.
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
			want := mustSolve(t, d, m, forceScan)
			auto, err := Solve(d, m)
			if err != nil {
				t.Fatal(err)
			}
			assertBitIdentical(t, fmt.Sprintf("law %d model %d auto", li, mi), auto, want)
			got := mustSolve(t, d, m, forceQueue)
			assertBitIdentical(t, fmt.Sprintf("law %d model %d queue", li, mi), got, want)
		}
	}
}

// TestBudgetedEnginesMatchScan pins the budgeted DP's queue pass to the
// reference scan, bit for bit. A budgeted Result shows only E[K][0] and
// the plan backtracked from it, so besides the results for several
// budgets K, every budget row k >= 2 is compared: the queue sweep over
// the scan's row k-1 must reproduce the scan's row k, every value and
// every choice.
func TestBudgetedEnginesMatchScan(t *testing.T) {
	laws := []*dist.Discrete{
		randomLaw(t, rng.New(7), 300),
		randomLaw(t, rng.New(11), 150),
	}
	for li, d := range laws {
		n := d.Len()
		for mi, m := range testModels {
			for _, k := range []int{2, 3, 8, n} {
				want := mustSolveMaxAttempts(t, d, m, k, forceScan)
				got := mustSolveMaxAttempts(t, d, m, k, forceQueue)
				assertBitIdentical(t, fmt.Sprintf("law %d model %d K=%d queue", li, mi, k), got, want)
			}
			scan := mustLaw(t, d, m, forceScan)
			E, choice := scan.budgetRows(n)
			queue := mustLaw(t, d, m, forceQueue)
			out := make([]float64, n+1)
			ch := make([]int, n+1)
			for k := 2; k < len(E); k++ {
				clear(out)
				for i := range ch {
					ch[i] = -1
				}
				queue.sweep(E[k-1], out, ch)
				for i := range out {
					//lint:ignore floatcmp both engines evaluate the same entries, so rows agree bitwise
					if out[i] != E[k][i] || ch[i] != choice[k][i] {
						t.Fatalf("law %d model %d row k=%d, i=%d: queue (%.17g, %d) != scan (%.17g, %d)",
							li, mi, k, i, out[i], ch[i], E[k][i], choice[k][i])
					}
				}
			}
		}
	}
}

// syntheticSolver builds a monotoneSolver over an explicit entry
// function with all n rows active, committing into the returned E/J
// arrays — the injection seam for matrices real instances cannot
// produce.
func syntheticSolver(n int, at func(i, j int) float64) (*monotoneSolver, []float64, []int) {
	S := make([]float64, n+1)
	for i := 0; i < n; i++ {
		S[i] = 1
	}
	mx := newMonotoneSolver(S)
	E := make([]float64, n)
	J := make([]int, n)
	mx.at = at
	mx.commit = func(i int) { E[i], J[i] = mx.best[i], mx.bestJ[i] }
	return mx, E, J
}

// lawSolver returns the solver Solve's sweep ran for d under m (white
// box), its at and commit still bound to the filled E and choice rows,
// so tests can drive the pass and the gate directly and tamper with
// their state.
func lawSolver(t *testing.T, d *dist.Discrete, m core.CostModel) *monotoneSolver {
	t.Helper()
	l := mustLaw(t, d, m, forceQueue)
	E := make([]float64, d.Len()+1)
	l.sweep(E, E, make([]int, d.Len()+1))
	return l.mx
}

// verifyAll is the full per-row check the gate only samples: every
// active row is re-scanned with the exact entry expression, and the
// pass's answer must match bit for bit — value and winning index.
func (s *monotoneSolver) verifyAll() bool {
	for _, i := range s.rows {
		bv := math.Inf(1)
		bj := -1
		for j := i; j < s.n; j++ {
			if c := s.at(i, j); c < bv {
				bv, bj = c, j
			}
		}
		//lint:ignore floatcmp the fast path must agree with the scan bitwise
		if bv != s.best[i] || bj != s.bestJ[i] {
			return false
		}
	}
	return true
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
			mx, E, J := syntheticSolver(n, at)
			if !mx.run() {
				t.Fatalf("seed %d n=%d: gate tripped on an exactly monotone matrix", seed, n)
			}
			for i := 0; i < n; i++ {
				//lint:ignore floatcmp exact integer arithmetic must agree bitwise
				if E[i] != wantE[i] || J[i] != wantJ[i] {
					t.Fatalf("seed %d n=%d row %d: got (%g,%d) want (%g,%d)",
						seed, n, i, E[i], J[i], wantE[i], wantJ[i])
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
	before := Fallbacks()
	mx, E, J := syntheticSolver(n, at)
	if mx.run() {
		t.Fatal("gate accepted a non-monotone matrix")
	}
	if Fallbacks() != before+1 {
		t.Error("fallback counter not incremented")
	}
	// The production fallback path: discard the fast state and rerun
	// the reference scan (what law.sweep does).
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
			t.Fatalf("row %d: fallback (%g,%d) != scan (%g,%d)", i, E[i], J[i], wantE[i], wantJ[i])
		}
	}
}

// TestVerifyAllCatchesCorruptedRow: the full per-row cross-check must
// reject a fast result whose stored winner was tampered with, even when
// the cheap gate cannot see the difference.
func TestVerifyAllCatchesCorruptedRow(t *testing.T) {
	mx := lawSolver(t, randomLaw(t, rng.New(5), 200), testModels[1])
	if !mx.run() || !mx.verifyAll() {
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
// newMonotoneSolver, and the pass, gate and verifier reuse it.
func TestDPRowKernelAllocsZero(t *testing.T) {
	mx := lawSolver(t, randomLaw(t, rng.New(21), 512), testModels[1])
	t.Run("queue", func(t *testing.T) {
		run := func() {
			mx.pass()
			if !mx.gate() {
				t.Fatal("gate tripped on a real instance")
			}
		}
		run() // warm-up outside the measurement
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("queue row kernel: %v allocs/run, want 0", allocs)
		}
	})
	t.Run("verify", func(t *testing.T) {
		mx.pass()
		if allocs := testing.AllocsPerRun(10, func() {
			if !mx.verifyAll() {
				t.Fatal("verifyAll rejected a consistent solve")
			}
		}); allocs != 0 {
			t.Errorf("verifyAll: %v allocs/run, want 0", allocs)
		}
	})
}

// TestGateRejectsShiftedWinner pins the gate's neighbour check: a
// result whose winners stay nondecreasing but are wrong must be
// refused. On a real n = 1000 discretized lognormal, one mid row's
// winner is moved by one column (to a column its neighbours' winners
// still bracket) and its value set to that column's entry; on the
// non-monotone |j − (n−1−i)| matrix, the block of rows ≤ 31 is given
// the constant wrong winner 32 — the answer a queue pass that trusted
// persistence returns there, which the strided pair check cannot see
// because every strided pair crossing the block boundary lands on
// row 32.
func TestGateRejectsShiftedWinner(t *testing.T) {
	dd, err := discretize.Discretize(dist.MustLogNormal(3, 1), 1000, 1e-7, discretize.EqualProbability)
	if err != nil {
		t.Fatal(err)
	}
	for _, shift := range []int{+1, -1} {
		mx := lawSolver(t, dd, testModels[1])
		if !mx.run() {
			t.Fatal("gate tripped on a real instance")
		}
		// The first row past the middle whose winner can move by shift
		// while the winners stay nondecreasing and feasible.
		row := -1
		for p := len(mx.rows) / 2; p+1 < len(mx.rows) && row < 0; p++ {
			i, j := mx.rows[p], mx.bestJ[mx.rows[p]]
			prevJ, nextJ := mx.bestJ[mx.rows[p-1]], mx.bestJ[mx.rows[p+1]]
			if (shift > 0 && j+1 <= nextJ && j+1 < mx.n) || (shift < 0 && j-1 >= prevJ && j-1 >= i) {
				row = i
			}
		}
		if row < 0 {
			t.Fatalf("shift %+d: no row admits a monotone shift", shift)
		}
		j := mx.bestJ[row] + shift
		mx.bestJ[row], mx.best[row] = j, mx.at(row, j)
		if mx.gate() {
			t.Errorf("shift %+d: gate accepted row %d moved to column %d", shift, row, j)
		}
	}

	const n = 64
	at := func(i, j int) float64 { return math.Abs(float64(j - (n - 1 - i))) }
	mx, _, _ := syntheticSolver(n, at)
	_, wantJ := scanRows(n, at)
	for i := 0; i < n; i++ {
		j := wantJ[i]
		if i <= 31 {
			j = 32
		}
		mx.best[i], mx.bestJ[i] = at(i, j), j
	}
	if mx.gate() {
		t.Error("gate accepted the constant wrong winner 32 on rows 0..31")
	}
}

// TestQueueSweepNoFallback runs the default engine over the workloads
// the plan path discretizes — the Table-1 laws and lognormal(3, σ) for
// 400 σ in [0.1, 1.5), both schemes at n = 1000, every test cost
// model — and requires the scan's answer bit for bit with no gate
// fallback: a fast path that quietly degrades to O(n²) fails here
// instead of only running slower. -short and the race detector (the
// sweep is single-goroutine) keep the plan-cold band σ ∈ [0.75, 1.25).
func TestQueueSweepNoFallback(t *testing.T) {
	lo, hi, count := 0.1, 1.5, 400
	if testing.Short() || raceEnabled {
		lo, hi, count = 0.75, 1.25, 40
	}
	laws := dist.Table1()
	for k := 0; k < count; k++ {
		laws = append(laws, dist.MustLogNormal(3, lo+(hi-lo)*(float64(k)+0.5)/float64(count)))
	}
	before := Fallbacks()
	for _, law := range laws {
		for _, sch := range []discretize.Scheme{discretize.EqualProbability, discretize.EqualTime} {
			dd, err := discretize.Discretize(law, 1000, 1e-7, sch)
			if err != nil {
				t.Fatalf("%s %v: %v", law.Name(), sch, err)
			}
			for mi, m := range testModels {
				want := mustSolve(t, dd, m, forceScan)
				got, err := Solve(dd, m)
				if err != nil {
					t.Fatal(err)
				}
				assertBitIdentical(t, fmt.Sprintf("%s %v model %d", law.Name(), sch, mi), got, want)
			}
		}
	}
	if d := Fallbacks() - before; d != 0 {
		t.Errorf("%d gate fallbacks over the sweep, want 0", d)
	}
}

// FuzzDPMatchesScan checks Solve and SolveMaxAttempts against the
// reference scan, bit for bit, on fuzzed laws in the style of
// randomLaw (n ∈ [1, 400], zero-mass interior and trailing points,
// truncated mass), one of the test cost models or a fuzzed valid one,
// and a fuzzed attempt budget. The default engine choice and the forced
// queue must both return the scan's answer.
func FuzzDPMatchesScan(f *testing.F) {
	f.Add(uint64(1), uint16(999), uint8(0), 0.0, 0.0, 0.0, uint8(3))
	f.Add(uint64(7), uint16(299), uint8(1), 0.0, 0.0, 0.0, uint8(7))
	f.Add(uint64(42), uint16(63), uint8(2), 0.0, 0.0, 0.0, uint8(1))
	f.Add(uint64(3), uint16(150), uint8(3), 0.5, 2.0, 0.25, uint8(11))
	f.Fuzz(func(t *testing.T, seed uint64, size uint16, model uint8, alpha, beta, gamma float64, budget uint8) {
		m := testModels[int(model)%len(testModels)]
		if model%4 == 3 {
			m = core.CostModel{Alpha: math.Abs(alpha), Beta: math.Abs(beta), Gamma: math.Abs(gamma)}
			if m.Validate() != nil || m.Alpha > 1e6 || m.Beta > 1e6 || m.Gamma > 1e6 {
				return
			}
		}
		d := randomLaw(t, rng.New(seed), 1+int(size)%400)
		k := 1 + int(budget)%12
		want := mustSolve(t, d, m, forceScan)
		wantK := mustSolveMaxAttempts(t, d, m, k, forceScan)
		for _, queueFrom := range []int{autoThreshold, forceQueue} {
			label := fmt.Sprintf("n=%d %v queueFrom %d", d.Len(), m, queueFrom)
			assertBitIdentical(t, label, mustSolve(t, d, m, queueFrom), want)
			gotK := mustSolveMaxAttempts(t, d, m, k, queueFrom)
			assertBitIdentical(t, fmt.Sprintf("%s K=%d", label, k), gotK, wantK)
		}
	})
}

// BenchmarkEngineCrossover times the scan and the gated queue pass on
// the benchmark law (LogNormal(3, 0.5), EqualProbability) at the small
// sizes where autoThreshold picks between them.
func BenchmarkEngineCrossover(b *testing.B) {
	for _, n := range []int{16, 32, 64, 128, 256} {
		dd := dpBenchLaw(b, n)
		for _, e := range []struct {
			name      string
			queueFrom int
		}{{"scan", forceScan}, {"queue", forceQueue}} {
			b.Run(fmt.Sprintf("%s/n=%d", e.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := solve(dd, core.ReservationOnly, e.queueFrom); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// dpBenchLaw is the DP benchmark law at n support points:
// LogNormal(3, 0.5) under the EqualProbability discretization, the
// law of the root package's BenchmarkDPSolve.
func dpBenchLaw(b *testing.B, n int) *dist.Discrete {
	b.Helper()
	dd, err := discretize.Discretize(dist.MustLogNormal(3, 0.5), n, 1e-7, discretize.EqualProbability)
	if err != nil {
		b.Fatal(err)
	}
	return dd
}

// BenchmarkDPSolveScan is the O(n²) reference scan over the instances
// of the root package's BenchmarkDPSolve — the denominator of the DP
// speedup (compare DPSolve/n=4096 against DPSolveScan/n=4096).
// Production runs the scan only below autoThreshold and after a gate
// trip.
func BenchmarkDPSolveScan(b *testing.B) {
	for _, n := range []int{256, 4096, 16384} {
		dd := dpBenchLaw(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solve(dd, core.ReservationOnly, forceScan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDPSolveBudget is the scan half of the budget-constrained
// DP benchmark (K = 8 attempts at n = 4096); its fast half is the root
// package's BenchmarkDPSolveBudget/fast.
func BenchmarkDPSolveBudget(b *testing.B) {
	const n, k = 4096, 8
	dd := dpBenchLaw(b, n)
	b.Run(fmt.Sprintf("scan/n=%d/k=%d", n, k), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := solveMaxAttempts(dd, core.ReservationOnly, k, forceScan); err != nil {
				b.Fatal(err)
			}
		}
	})
}
