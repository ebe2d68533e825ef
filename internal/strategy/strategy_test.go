package strategy

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/dist"
	"repro/internal/dp"
	"repro/internal/rng"
	"repro/internal/simulate"
)

func seqPrefix(t *testing.T, s *core.Sequence, n int) []float64 {
	t.Helper()
	v, err := s.Prefix(n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMeanByMeanExponential(t *testing.T) {
	// Appendix B: for Exp(λ) the sequence is t_i = i/λ (memoryless).
	d := dist.MustExponential(2)
	s, err := MeanByMean{}.Sequence(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	v := seqPrefix(t, s, 5)
	for i, got := range v {
		want := float64(i+1) / 2
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("t_%d = %g, want %g", i+1, got, want)
		}
	}
}

func TestMeanByMeanPareto(t *testing.T) {
	// Appendix B: t_i = (α/(α-1))^i · ν... precisely t_1 = αν/(α-1),
	// t_i = α t_{i-1}/(α-1).
	d := dist.MustPareto(1.5, 3)
	s, err := MeanByMean{}.Sequence(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	v := seqPrefix(t, s, 5)
	want := 1.5 * 1.5 // αν/(α-1) = 2.25
	for i, got := range v {
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("t_%d = %g, want %g", i+1, got, want)
		}
		want *= 1.5
	}
}

func TestMeanByMeanUniformClosesAtB(t *testing.T) {
	// Appendix B: t_i = (b + t_{i-1})/2 with t_1 = (a+b)/2; on a bounded
	// support the sequence must terminate with exactly b.
	d := dist.MustUniform(10, 20)
	s, err := MeanByMean{}.Sequence(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	v := seqPrefix(t, s, 200)
	if v[0] != 15 {
		t.Errorf("t1 = %g, want 15", v[0])
	}
	if math.Abs(v[1]-17.5) > 1e-12 {
		t.Errorf("t2 = %g, want 17.5", v[1])
	}
	if last := v[len(v)-1]; last != 20 {
		t.Errorf("sequence does not close at b: last = %g (len %d)", last, len(v))
	}
	// Must be a genuinely finite sequence.
	if _, err := s.At(len(v)); !errors.Is(err, core.ErrEnd) {
		t.Errorf("expected ErrEnd, got %v", err)
	}
}

func TestMeanStdevAndDoublingFormulas(t *testing.T) {
	d := dist.MustLogNormal(3, 0.5)
	mu, sigma := d.Mean(), dist.StdDev(d)

	s, _ := MeanStdev{}.Sequence(core.ReservationOnly, d)
	for i, got := range seqPrefix(t, s, 4) {
		want := mu + float64(i)*sigma
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Mean-Stdev t_%d = %g, want %g", i+1, got, want)
		}
	}

	s, _ = MeanDoubling{}.Sequence(core.ReservationOnly, d)
	for i, got := range seqPrefix(t, s, 4) {
		want := mu * math.Pow(2, float64(i))
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Mean-Doubling t_%d = %g, want %g", i+1, got, want)
		}
	}
}

func TestMedianByMedianFormula(t *testing.T) {
	d := dist.MustExponential(1)
	s, _ := MedianByMedian{}.Sequence(core.ReservationOnly, d)
	for i, got := range seqPrefix(t, s, 6) {
		want := float64(i+1) * math.Ln2 // Q(1-2^{-i}) = i·ln2
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("t_%d = %g, want %g", i+1, got, want)
		}
	}
}

func TestMedianByMedianExactCost(t *testing.T) {
	// Analytic: E = Σ (i+1)ln2·2^{-i} = 4·ln2 ≈ 2.7726 for Exp(1).
	d := dist.MustExponential(1)
	s, _ := MedianByMedian{}.Sequence(core.ReservationOnly, d)
	e, err := core.ExpectedCost(core.ReservationOnly, d, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-4*math.Ln2) > 1e-6 {
		t.Errorf("E = %.9g, want 4·ln2 = %.9g", e, 4*math.Ln2)
	}
}

func TestStandardHeuristicsValidOnTable1(t *testing.T) {
	// Every §4.3 heuristic yields a valid sequence with finite analytic
	// cost on every Table-1 distribution, and all reservations respect
	// strict monotonicity.
	for _, d := range dist.Table1() {
		for _, st := range StandardHeuristics() {
			s, err := st.Sequence(core.ReservationOnly, d)
			if err != nil {
				t.Fatalf("%s/%s: %v", st.Name(), d.Name(), err)
			}
			e, err := core.ExpectedCost(core.ReservationOnly, d, s.Clone())
			if err != nil {
				t.Fatalf("%s/%s cost: %v", st.Name(), d.Name(), err)
			}
			if math.IsInf(e, 1) || math.IsNaN(e) || e <= 0 {
				t.Errorf("%s/%s: cost %g", st.Name(), d.Name(), e)
			}
			v, err := s.Prefix(50)
			if err != nil {
				t.Fatalf("%s/%s prefix: %v", st.Name(), d.Name(), err)
			}
			for i := 1; i < len(v); i++ {
				if v[i] <= v[i-1] {
					t.Fatalf("%s/%s: not increasing at %d: %v", st.Name(), d.Name(), i, v[:i+1])
				}
			}
		}
	}
}

func TestBruteForceExponentialFindsS1(t *testing.T) {
	// §3.5: the optimal first reservation for Exp(1) is s1 ≈ 0.74219.
	d := dist.MustExponential(1)
	bf := BruteForce{M: 2000, Mode: EvalAnalytic}
	res, err := bf.Search(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best.T1-0.74219) > 0.02 {
		t.Errorf("brute-force t1 = %g, want ≈0.74219", res.Best.T1)
	}
	if res.Best.Cost < 2.2 || res.Best.Cost > 2.45 {
		t.Errorf("brute-force cost = %g, want ≈2.36", res.Best.Cost)
	}
	if len(res.Candidates) != 2000 {
		t.Errorf("candidate count = %d", len(res.Candidates))
	}
}

func TestBruteForceUniformFindsB(t *testing.T) {
	// Theorem 4: for Uniform(10, 20) the optimum is the single
	// reservation (b); the scan must land on t1 ≈ 20 with cost ≈ 20.
	d := dist.MustUniform(10, 20)
	bf := BruteForce{M: 1000, Mode: EvalAnalytic, TailEps: -1} // strict
	res, err := bf.Search(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Best.T1-20) > 0.02 {
		t.Errorf("t1 = %g, want 20", res.Best.T1)
	}
	if math.Abs(res.Best.Cost-20) > 0.05 {
		t.Errorf("cost = %g, want 20", res.Best.Cost)
	}
	// Under the strict rule, interior candidates are invalid.
	invalid := 0
	for _, c := range res.Candidates {
		if !c.Valid {
			invalid++
		}
	}
	if invalid < len(res.Candidates)/2 {
		t.Errorf("only %d/%d invalid candidates; Theorem 4 predicts almost all", invalid, len(res.Candidates))
	}
}

func TestBruteForceMonteCarloClose(t *testing.T) {
	// MC scoring lands near the analytic optimum (within noise).
	d := dist.MustLogNormal(3, 0.5)
	mc := BruteForce{M: 300, N: 2000, Mode: EvalMonteCarlo, Seed: 9}
	an := BruteForce{M: 300, Mode: EvalAnalytic}
	rm, err := mc.Search(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := an.Search(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rm.Best.Cost-ra.Best.Cost) > 0.15*ra.Best.Cost {
		t.Errorf("MC best %g vs analytic best %g", rm.Best.Cost, ra.Best.Cost)
	}
}

func TestBruteForceBeatsStandardHeuristics(t *testing.T) {
	// Table-2 shape: BRUTE-FORCE is at least as good as every §4.3
	// heuristic under analytic scoring.
	for _, d := range dist.Table1() {
		bf := BruteForce{M: 1500, Mode: EvalAnalytic}
		res, err := bf.Search(core.ReservationOnly, d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name(), err)
		}
		for _, st := range StandardHeuristics() {
			s, err := st.Sequence(core.ReservationOnly, d)
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.ExpectedCost(core.ReservationOnly, d, s)
			if err != nil {
				t.Fatal(err)
			}
			if e < res.Best.Cost-0.02*res.Best.Cost {
				t.Errorf("%s: %s cost %g beats brute force %g", d.Name(), st.Name(), e, res.Best.Cost)
			}
		}
	}
}

func TestRefinedBruteForceAtLeastAsGood(t *testing.T) {
	d := dist.MustGamma(2, 2)
	coarse := BruteForce{M: 200, Mode: EvalAnalytic}
	rc, err := coarse.Search(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RefinedBruteForce{Coarse: BruteForce{M: 200}}.search(core.ReservationOnly, d, true)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Best.Cost > rc.Best.Cost+1e-9 {
		t.Errorf("refined %g worse than coarse %g", rr.Best.Cost, rc.Best.Cost)
	}
}

func TestDiscretizedStrategyUniform(t *testing.T) {
	// Theorem 4 through the DP pipeline: single reservation (b), cost
	// normalized 4/3.
	d := dist.MustUniform(10, 20)
	for _, sch := range []Discretized{{}, {Scheme: 1}} {
		s, err := sch.Sequence(core.ReservationOnly, d)
		if err != nil {
			t.Fatal(err)
		}
		e, err := core.ExpectedCost(core.ReservationOnly, d, s)
		if err != nil {
			t.Fatal(err)
		}
		r := e / core.ReservationOnly.OmniscientCost(d)
		if math.Abs(r-4.0/3.0) > 0.01 {
			t.Errorf("%s: normalized cost %g, want 1.333", sch.Name(), r)
		}
	}
}

func TestDiscretizedStrategyCloseToBruteForce(t *testing.T) {
	// §5.2 / Table 4: with n = 1000 both discretization schemes converge
	// near the brute-force cost on unbounded laws too.
	for _, d := range []dist.Distribution{dist.MustExponential(1), dist.MustGamma(2, 2)} {
		bf, err := BruteForce{M: 1000, Mode: EvalAnalytic}.Search(core.ReservationOnly, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, sch := range []Discretized{{N: 1000}, {Scheme: 1, N: 1000}} {
			s, err := sch.Sequence(core.ReservationOnly, d)
			if err != nil {
				t.Fatal(err)
			}
			e, err := core.ExpectedCost(core.ReservationOnly, d, s)
			if err != nil {
				t.Fatal(err)
			}
			if e > 1.25*bf.Best.Cost {
				t.Errorf("%s on %s: cost %g far above brute force %g", sch.Name(), d.Name(), e, bf.Best.Cost)
			}
		}
	}
}

func TestDiscretizedSequenceExtendsBeyondTruncation(t *testing.T) {
	d := dist.MustExponential(1)
	s, err := Discretized{N: 50}.Sequence(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	// Far past the truncation point the sequence must keep increasing.
	v, err := s.Prefix(40)
	if err != nil {
		t.Fatal(err)
	}
	if v[len(v)-1] <= d.Quantile(1-1e-7) {
		t.Errorf("sequence did not extend beyond truncation: last = %g", v[len(v)-1])
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[string]bool{}
	all := append(StandardHeuristics(),
		BruteForce{}, RefinedBruteForce{}, Discretized{}, Discretized{Scheme: 1})
	for _, st := range all {
		n := st.Name()
		if n == "" || names[n] {
			t.Errorf("bad or duplicate name %q", n)
		}
		names[n] = true
	}
}

func TestBruteForceMCEstimateAgreesWithSimulate(t *testing.T) {
	// The candidate evaluator must agree with the simulate package on
	// the same sample set.
	d := dist.MustExponential(1)
	bf := BruteForce{N: 500, Seed: 4}
	samples := simulate.Samples(d, 500, 4)
	cand, seq := bf.EvaluateT1(core.ReservationOnly, d, 1.0, samples)
	if !cand.Valid {
		t.Fatal("candidate invalid")
	}
	est, err := simulate.CostOnSamples(core.ReservationOnly, seq.Clone(), samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cand.Cost-est.Mean) > 1e-12 {
		t.Errorf("evaluator %g vs simulate %g", cand.Cost, est.Mean)
	}
}

// TestBruteForceDominatesOnRandomLaws: the brute-force optimum beats
// every §4.3 heuristic (analytically) on randomly parameterized laws,
// not just the Table-1 instantiations.
func TestBruteForceDominatesOnRandomLaws(t *testing.T) {
	r := rng.New(2027)
	mkLaw := func(i int) dist.Distribution {
		switch i % 4 {
		case 0:
			return dist.MustExponential(0.2 + 3*r.Float64())
		case 1:
			return dist.MustLogNormal(2*r.Float64(), 0.2+0.8*r.Float64())
		case 2:
			return dist.MustGamma(0.5+4*r.Float64(), 0.5+3*r.Float64())
		default:
			return dist.MustWeibull(0.5+2*r.Float64(), 0.7+2*r.Float64())
		}
	}
	for i := 0; i < 24; i++ {
		d := mkLaw(i)
		m := core.ReservationOnly
		if i%3 == 1 {
			m = core.CostModel{Alpha: 1, Beta: r.Float64(), Gamma: r.Float64()}
		}
		res, err := BruteForce{M: 800, Mode: EvalAnalytic}.Search(m, d)
		if err != nil {
			t.Fatalf("%s %v: %v", d.Name(), m, err)
		}
		for _, st := range StandardHeuristics() {
			s, err := st.Sequence(m, d)
			if err != nil {
				t.Fatalf("%s on %s: %v", st.Name(), d.Name(), err)
			}
			e, err := core.ExpectedCost(m, d, s)
			if err != nil {
				t.Fatalf("%s on %s: %v", st.Name(), d.Name(), err)
			}
			// Allow 3% slack for the finite grid.
			if e < res.Best.Cost*0.97 {
				t.Errorf("%s on %s (%v): heuristic %g beats brute force %g",
					st.Name(), d.Name(), m, e, res.Best.Cost)
			}
		}
	}
}

func TestStrategyInterfaceSequenceMethods(t *testing.T) {
	// The Strategy-interface Sequence methods of the search-based
	// strategies, plus the small display helpers.
	d := dist.MustExponential(1)
	bf := BruteForce{M: 200, Mode: EvalAnalytic}
	s, err := bf.Sequence(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.At(0); math.Abs(v-0.74) > 0.1 {
		t.Errorf("BF first = %g", v)
	}
	rb := RefinedBruteForce{Coarse: BruteForce{M: 200}}
	s, err = rb.Sequence(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.At(0); math.Abs(v-0.742) > 0.05 {
		t.Errorf("refined first = %g", v)
	}
	if EvalMonteCarlo.String() != "monte-carlo" || EvalAnalytic.String() != "analytic" {
		t.Error("EvalMode strings")
	}
}

// TestDiscretizedDPResult: the DP on a uniform law's discretization
// reserves the upper bound once (Theorem 4), and the strategy lifts
// exactly that; an invalid truncation quantile is rejected.
func TestDiscretizedDPResult(t *testing.T) {
	d := dist.MustUniform(10, 20)
	dd, err := discretize.Discretize(d, 50, 0, discretize.EqualProbability)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dp.Solve(dd, core.ReservationOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sequence) != 1 || res.Sequence[0] != 20 {
		t.Errorf("DP result %v, want [20] (Theorem 4)", res.Sequence)
	}
	seq, err := Discretized{N: 50}.Sequence(core.ReservationOnly, d)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := seq.At(0); err != nil || v != 20 {
		t.Errorf("lifted first reservation %g (%v), want 20", v, err)
	}
	if _, err := (Discretized{N: -1, Epsilon: 2}).Sequence(core.ReservationOnly, d); err == nil {
		t.Error("invalid epsilon accepted")
	}
}
