package strategy

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/simulate"
)

// errString renders an error for equality checks (nil as "").
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sameBits reports whether two floats are Float64bits-equal.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// curveWinner is the winner of an exhaustive linear scan over Curve's
// exact costs — its first minimal valid candidate — with the sequence
// and error Search must report.
func curveWinner(b BruteForce, m core.CostModel, d dist.Distribution) (Candidate, *core.Sequence, error) {
	cands, err := b.Curve(m, d, nil)
	if err != nil {
		return Candidate{}, nil, err
	}
	best := Candidate{Cost: math.Inf(1)}
	for _, c := range cands {
		if c.Valid && c.Cost < best.Cost {
			best = c
		}
	}
	if !best.Valid {
		return Candidate{}, nil, errors.New("strategy: no valid brute-force candidate")
	}
	_, _, tailEps := b.params()
	return best, core.SequenceFromFirstTail(m, d, best.T1, tailEps), nil
}

// refinedWinner is RefinedBruteForce's answer rebuilt on curveWinner:
// the exhaustive coarse winner, then the same polish, taken unless it
// scores worse.
func refinedWinner(r RefinedBruteForce, m core.CostModel, d dist.Distribution) (Candidate, *core.Sequence, error) {
	coarse := r.Coarse
	coarse.Mode = EvalAnalytic
	if coarse.M == 0 {
		coarse.M = 500
	}
	best, seq, err := curveWinner(coarse, m, d)
	if err != nil {
		return best, seq, err
	}
	lo, _ := d.Support()
	hi := core.BoundFirstReservation(m, d)
	_, _, tailEps := coarse.params()
	cur := core.NewCostCursor(m, d, tailEps)
	if c := polish(&cur, best.T1, (hi-lo)/float64(coarse.M), lo, hi); c.Valid && !(c.Cost > best.Cost) {
		return c, core.SequenceFromFirstTail(m, d, c.T1, tailEps), nil
	}
	return best, seq, nil
}

// checkSameWinner asserts that the winner-only result got (and the
// public Sequence output seq) carries the exhaustive winner want bit
// for bit: error, T1, cost, Valid and an 8-value preview of want's
// sequence.
func checkSameWinner(t *testing.T, what string, got SearchResult, errGot error, seq *core.Sequence, errSeq error, want Candidate, wantSeq *core.Sequence, errWant error) {
	t.Helper()
	if errString(errGot) != errString(errWant) || errString(errSeq) != errString(errWant) {
		t.Fatalf("%s: errors winner-only %v, Sequence %v, exhaustive %v", what, errGot, errSeq, errWant)
	}
	if errWant != nil {
		return
	}
	if !sameBits(got.Best.T1, want.T1) || !sameBits(got.Best.Cost, want.Cost) || got.Best.Valid != want.Valid {
		t.Fatalf("%s: winner %+v, exhaustive %+v", what, got.Best, want)
	}
	wantPre, errW := wantSeq.Clone().Prefix(8)
	for _, s := range []*core.Sequence{got.Sequence, seq} {
		pre, err := s.Clone().Prefix(8)
		if errString(err) != errString(errW) || len(pre) != len(wantPre) {
			t.Fatalf("%s: preview %v (%v), exhaustive %v (%v)", what, pre, err, wantPre, errW)
		}
		for i := range pre {
			if !sameBits(pre[i], wantPre[i]) {
				t.Fatalf("%s: preview[%d] = %.17g, exhaustive %.17g", what, i, pre[i], wantPre[i])
			}
		}
	}
}

// checkWinnerOnly runs b and its refinement through the winner-only
// path and compares them with the exhaustive scan over Curve.
func checkWinnerOnly(t *testing.T, what string, b BruteForce, m core.CostModel, d dist.Distribution) {
	t.Helper()
	want, wantSeq, errWant := curveWinner(b, m, d)
	got, errGot := b.Search(m, d, nil)
	seq, errSeq := b.Sequence(m, d)
	checkSameWinner(t, what, got, errGot, seq, errSeq, want, wantSeq, errWant)

	r := RefinedBruteForce{Coarse: b}
	want, wantSeq, errWant = refinedWinner(r, m, d)
	got, errGot = r.search(m, d)
	seq, errSeq = r.Sequence(m, d)
	checkSameWinner(t, what+" refined", got, errGot, seq, errSeq, want, wantSeq, errWant)
}

// TestSequenceMatchesSearch is the differential check of the
// winner-only scan: Search and Sequence (no candidate slab,
// budget-pruned candidates, early block stop) must return the winner
// of an exhaustive scan over Curve's exact costs bit for bit, over the
// pin laws and a lognormal σ sweep, three cost models, both scoring
// modes, one and three workers, and both tail rules.
func TestSequenceMatchesSearch(t *testing.T) {
	// The narrow lognormals put the Monte-Carlo winner's first-attempt
	// fixed cost within a percent of its total, where a loosened stop
	// bound would skip it.
	laws := pinLaws()
	for _, sigma := range []float64{0.02, 0.05, 0.1, 0.25, 0.40315, 0.5, 0.75, 1, 1.25, 1.45} {
		laws = append(laws, dist.MustLogNormal(3, sigma))
	}
	models := []core.CostModel{
		core.ReservationOnly,
		{Alpha: 0.95, Beta: 1, Gamma: 1.05},
		{Alpha: 1, Beta: 0.5, Gamma: 0.1},
	}
	stops := 0
	for _, d := range laws {
		for _, m := range models {
			for _, mode := range []EvalMode{EvalMonteCarlo, EvalAnalytic} {
				for _, workers := range []int{1, 3} {
					for _, tail := range []float64{0, -1} {
						b := BruteForce{M: 500, N: 300, Mode: mode, Seed: 11, TailEps: tail, Workers: workers}
						checkWinnerOnly(t, fmt.Sprintf("%s %v %v workers=%d tail=%g", d.Name(), m, mode, workers, tail), b, m, d)
					}
				}
			}
			cur := core.NewCostCursor(m, d, core.DefaultTailEps)
			if res, err := (BruteForce{M: 500, Mode: EvalAnalytic, Workers: 1}).Search(m, d, nil); err == nil &&
				cur.PrunesFrom(core.BoundFirstReservation(m, d), res.Best.Cost) {
				stops++
			}
		}
	}
	// The comparison is only meaningful if blocks do stop early.
	if stops == 0 {
		t.Error("no law stops its scan before the last grid point; the early stop was never exercised")
	}
}

// TestCurveIsExact: every point of Curve carries EvaluateT1's exact,
// unbudgeted score of its t1 on the same workload, in scan order, at
// one and three workers and in both scoring modes.
func TestCurveIsExact(t *testing.T) {
	const gridM = 120
	for _, d := range pinLaws() {
		for _, m := range []core.CostModel{core.ReservationOnly, {Alpha: 0.95, Beta: 1, Gamma: 1.05}} {
			for _, mode := range []EvalMode{EvalMonteCarlo, EvalAnalytic} {
				wl := simulate.NewWorkloadFrom(d, 300, 5)
				for _, workers := range []int{1, 3} {
					b := BruteForce{M: gridM, N: 300, Mode: mode, Seed: 5, Workers: workers}
					cands, err := b.Curve(m, d, wl)
					if err != nil || len(cands) != gridM {
						t.Fatalf("%s %v %v: %d candidates, %v", d.Name(), m, mode, len(cands), err)
					}
					lo, _ := d.Support()
					hi := core.BoundFirstReservation(m, d)
					for i, c := range cands {
						want, _ := b.EvaluateT1(m, d, lo+(hi-lo)*float64(i+1)/gridM, wl)
						if !sameBits(c.T1, want.T1) || !sameBits(c.Cost, want.Cost) || c.Valid != want.Valid {
							t.Fatalf("%s %v %v workers=%d point %d: curve %+v, EvaluateT1 %+v", d.Name(), m, mode, workers, i, c, want)
						}
					}
				}
			}
		}
	}
}

// humpCost is G(x) = x with a surcharge of 1000 on (5, 15). Its
// recurrence is the affine one (Deriv and Inverse of AffineCost), but
// its first term rises and then falls again over the grid.
type humpCost struct{ core.AffineCost }

func (h humpCost) At(x float64) float64 {
	if x > 5 && x < 15 {
		return x + 1000
	}
	return x
}

// TestConvexWinnerMatchesExhaustiveScan guards the convex scan against
// the early block stop, which it must never take: a convex G need not
// be monotone. G(x) = 0.05x² - x + 10 is nonnegative but decreasing up
// to x = 10; humpCost's first term falls after its surcharge, so a
// stop at the surcharge would miss the winner beyond it. The convex
// winner must equal a scan that scores every grid point exactly,
// followed by the same polish.
func TestConvexWinnerMatchesExhaustiveScan(t *testing.T) {
	laws := []dist.Distribution{dist.MustLogNormal(3, 0.5), dist.MustUniform(10, 20), dist.MustGamma(12, 1)}
	for _, c := range []struct {
		g    core.ConvexCost
		laws []dist.Distribution
	}{
		{core.QuadraticCost{A: 0.05, B: -1, C: 10}, laws},
		{humpCost{core.AffineCost{Alpha: 1}}, laws[:1]},
	} {
		g := c.g
		for _, d := range c.laws {
			for _, beta := range []float64{0, 1} {
				const m = 400
				lo, _ := d.Support()
				upper := lo + 10*d.Mean()
				if _, hi := d.Support(); !math.IsInf(hi, 1) {
					upper = hi
				}
				cur := core.NewConvexCostCursor(g, beta, d, core.DefaultTailEps)
				want := Candidate{Cost: math.Inf(1)}
				for i := 0; i < m; i++ {
					t1 := lo + (upper-lo)*float64(i+1)/float64(m)
					cost, _, err := cur.CostBudget(t1, math.Inf(1))
					if err == nil && !math.IsNaN(cost) && !math.IsInf(cost, 1) && cost < want.Cost {
						want = Candidate{T1: t1, Cost: cost, Valid: true}
					}
				}
				if !want.Valid {
					t.Fatalf("%s beta=%g: no valid convex candidate", d.Name(), beta)
				}
				if p := polish(&cur, want.T1, (upper-lo)/float64(m), lo, upper); p.Valid && p.Cost < want.Cost {
					want = p
				}
				for _, workers := range []int{1, 3} {
					t1, cost, _, err := ConvexBruteForce{G: g, Beta: beta, M: m, Workers: workers}.Search(d)
					if err != nil {
						t.Fatalf("%s beta=%g workers=%d: %v", d.Name(), beta, workers, err)
					}
					if !sameBits(t1, want.T1) || !sameBits(cost, want.Cost) {
						t.Errorf("%T %s beta=%g workers=%d: winner (%.17g, %.17g), exhaustive (%.17g, %.17g)",
							g, d.Name(), beta, workers, t1, cost, want.T1, want.Cost)
					}
				}
			}
		}
	}
}

// unit maps any finite float to [0, 1) by its fractional magnitude.
func unit(x float64) float64 {
	x = math.Abs(x)
	return x - math.Floor(x)
}

// fuzzLaw builds one of nine Table-1 families from two unit draws.
func fuzzLaw(family uint8, u1, u2 float64) (dist.Distribution, error) {
	switch family % 9 {
	case 0:
		return dist.NewExponential(0.2 + 4*u1)
	case 1:
		return dist.NewWeibull(0.5+4*u1, 0.3+2*u2)
	case 2:
		return dist.NewGamma(0.5+4*u1, 0.2+3*u2)
	case 3:
		return dist.NewLogNormal(4*u1, 0.1+1.4*u2)
	case 4:
		a := 10 * u1
		return dist.NewUniform(a, a+0.5+20*u2)
	case 5:
		return dist.NewBeta(0.5+4*u1, 0.5+4*u2)
	case 6:
		l := 0.5 + 2*u1
		return dist.NewBoundedPareto(l, l*(2+20*u2), 2.1)
	case 7:
		return dist.NewPareto(1+2*u1, 2.05+3*u2)
	default:
		return dist.NewTruncatedNormal(1+10*u1, 0.5+3*u2, 0)
	}
}

// FuzzWinnerOnlyScan draws a law from nine Table-1 families, a cost
// model, a grid size M in [2, 600], and a setting byte (bit 0: analytic
// scoring, bit 1: three workers, bit 2: the strict tail rule), and
// asserts that the winner-only scans of BruteForce and
// RefinedBruteForce return the error, T1, cost and 8-value preview of
// the exhaustive scan over Curve bit for bit.
func FuzzWinnerOnlyScan(f *testing.F) {
	f.Add(uint8(3), 0.75, 0.64, 1.0, 0.0, 0.0, uint16(498), uint8(1))
	f.Add(uint8(0), 0.2, 0.0, 0.95, 1.0, 1.05, uint16(300), uint8(2))
	f.Add(uint8(4), 0.5, 0.25, 0.45, 0.5, 0.1, uint16(2), uint8(7))
	f.Add(uint8(7), 0.25, 0.01, 1.0, 0.0, 0.0, uint16(598), uint8(4))
	f.Fuzz(func(t *testing.T, family uint8, p1, p2, alpha, beta, gamma float64, m uint16, setting uint8) {
		for _, x := range []float64{p1, p2, alpha, beta, gamma} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return
			}
		}
		d, err := fuzzLaw(family, unit(p1), unit(p2))
		if err != nil {
			return
		}
		model := core.CostModel{Alpha: 0.1 + 2*unit(alpha), Beta: 2 * unit(beta), Gamma: 2 * unit(gamma)}
		b := BruteForce{M: 2 + int(m)%599, N: 200, Seed: uint64(family), Workers: 1}
		if setting&1 != 0 {
			b.Mode = EvalAnalytic
		}
		if setting&2 != 0 {
			b.Workers = 3
		}
		if setting&4 != 0 {
			b.TailEps = -1
		}
		checkWinnerOnly(t, fmt.Sprintf("%s %v M=%d setting=%d", d.Name(), model, b.M, setting), b, model, d)
	})
}
