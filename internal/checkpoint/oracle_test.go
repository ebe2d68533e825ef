package checkpoint

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
)

// oracleCost evaluates the exact expected cost of a fully specified
// policy (milestone indices + checkpoint bits) over a discrete law by
// direct enumeration of outcomes — an independent implementation used
// only as a test oracle.
// milestoneVals is the support table the milestone indices refer to;
// jobs/jobProbs describe the job population being priced.
func oracleCost(milestoneVals, jobs, jobProbs []float64, m core.CostModel, p Params, miles []int, ckpts []bool) float64 {
	vals := milestoneVals
	var e float64
	for vi, v := range jobs {
		// Walk the policy for a job of work v.
		progress := 0.0
		have := false
		var cost float64
		done := false
		for si, j := range miles {
			restore := 0.0
			if have {
				restore = p.R
			}
			length := restore + (vals[j] - progress)
			if ckpts[si] {
				length += p.C
			}
			if v <= vals[j] {
				cost += m.Alpha*length + m.Beta*(restore+v-progress) + m.Gamma
				done = true
				break
			}
			cost += m.Alpha*length + m.Beta*length + m.Gamma
			if ckpts[si] {
				progress = vals[j]
				have = true
			}
		}
		if !done {
			return math.Inf(1)
		}
		e += jobProbs[vi] * cost
	}
	return e
}

// oracleBest enumerates every increasing milestone subset ending at the
// top value and every checkpoint-bit assignment, returning the optimal
// cost. Exponential (≈ 3^{n-1}); n must stay tiny.
func oracleBest(vals, probs []float64, m core.CostModel, p Params) float64 {
	n := len(vals)
	best := math.Inf(1)
	// Subsets of {0..n-2} (bitmask), always including n-1.
	for mask := 0; mask < 1<<(n-1); mask++ {
		var miles []int
		for b := 0; b < n-1; b++ {
			if mask&(1<<b) != 0 {
				miles = append(miles, b)
			}
		}
		miles = append(miles, n-1)
		k := len(miles)
		// All checkpoint-bit assignments for the k steps (the final
		// step's bit only wastes C; include it anyway so the oracle
		// covers policies the DP prunes).
		for bits := 0; bits < 1<<k; bits++ {
			ckpts := make([]bool, k)
			for s := 0; s < k; s++ {
				ckpts[s] = bits&(1<<s) != 0
			}
			if c := oracleCost(vals, vals, probs, m, p, miles, ckpts); c < best {
				best = c
			}
		}
	}
	return best
}

// TestSolveMatchesExhaustiveOracle cross-checks the O(n³) mixed DP
// against full enumeration on random small instances.
func TestSolveMatchesExhaustiveOracle(t *testing.T) {
	f := func(seed uint64, nRaw uint8, cRaw, rRaw uint8, withBeta bool) bool {
		n := int(nRaw%5) + 2 // 2..6 support points
		r := rng.New(seed)
		vals := make([]float64, n)
		probs := make([]float64, n)
		cur := 0.0
		tot := 0.0
		for i := range vals {
			cur += 0.2 + 2*r.Float64()
			vals[i] = cur
			probs[i] = 0.05 + r.Float64()
			tot += probs[i]
		}
		for i := range probs {
			probs[i] /= tot
		}
		d, err := dist.NewDiscrete(vals, probs)
		if err != nil {
			return false
		}
		m := core.ReservationOnly
		if withBeta {
			m = core.CostModel{Alpha: 0.5 + r.Float64(), Beta: r.Float64(), Gamma: r.Float64()}
		}
		p := Params{C: float64(cRaw%40) / 20, R: float64(rRaw%40) / 20}
		got, err := Solve(d, m, p)
		if err != nil {
			return false
		}
		want := oracleBest(vals, probs, m, p)
		if math.Abs(got.ExpectedCost-want) > 1e-9*(1+want) {
			t.Logf("n=%d m=%v p=%v: DP %.12g oracle %.12g", n, m, p, got.ExpectedCost, want)
			return false
		}
		// The DP's own policy must achieve its claimed cost under the
		// independent per-job evaluator.
		miles := make([]int, len(got.Steps))
		ckpts := make([]bool, len(got.Steps))
		for i, st := range got.Steps {
			for j, v := range vals {
				if v == st.Milestone {
					miles[i] = j
				}
			}
			ckpts[i] = st.Checkpoint
		}
		achieved := oracleCost(vals, vals, probs, m, p, miles, ckpts)
		return math.Abs(achieved-got.ExpectedCost) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPolicyCostAgreesWithOracleEvaluator: Policy.Cost and the oracle's
// per-job walk are two implementations of the same semantics.
func TestPolicyCostAgreesWithOracleEvaluator(t *testing.T) {
	vals := []float64{1, 2.5, 4, 7}
	probs := []float64{0.4, 0.3, 0.2, 0.1}
	d, err := dist.NewDiscrete(vals, probs)
	if err != nil {
		t.Fatal(err)
	}
	m := core.CostModel{Alpha: 1, Beta: 0.6, Gamma: 0.3}
	p := Params{C: 0.2, R: 0.15}
	pol, err := Solve(d, m, p)
	if err != nil {
		t.Fatal(err)
	}
	miles := make([]int, len(pol.Steps))
	ckpts := make([]bool, len(pol.Steps))
	for i, st := range pol.Steps {
		for j, v := range vals {
			if v == st.Milestone {
				miles[i] = j
			}
		}
		ckpts[i] = st.Checkpoint
	}
	for _, v := range vals {
		got, err := pol.Cost(m, p, v)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleCost(vals, []float64{v}, []float64{1}, m, p, miles, ckpts)
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("job %g: Policy.Cost %g vs oracle %g", v, got, want)
		}
	}
}

// PolicyStats are the closed-form operating statistics of a checkpoint
// policy over a discrete law.
type PolicyStats struct {
	// ExpectedCost re-derives the expectation via the per-job cost (it
	// must match the solver's claimed optimum).
	ExpectedCost float64
	// ExpectedAttempts is the mean number of reservations paid.
	ExpectedAttempts float64
	// ExpectedReserved is the mean total reserved time.
	ExpectedReserved float64
	// SnapshotProb is the probability at least one snapshot is actually
	// written — a checkpointing step writes one only when it runs to
	// its end, i.e. when the job outlives its milestone.
	SnapshotProb float64
}

// Stats evaluates the policy's exact operating statistics over a
// discrete law; its ExpectedCost, re-derived from the per-job cost, is
// a test oracle for the optimum Solve claims.
func (pol Policy) Stats(m core.CostModel, p Params, d *dist.Discrete) (PolicyStats, error) {
	if err := m.Validate(); err != nil {
		return PolicyStats{}, err
	}
	if err := p.Validate(); err != nil {
		return PolicyStats{}, err
	}
	if d == nil || d.Len() == 0 {
		return PolicyStats{}, errors.New("checkpoint: empty distribution")
	}
	vals := d.Values()
	raw := d.Probs()
	total := d.Total()
	survivalPast := func(milestone float64) float64 {
		var f float64
		for i, v := range vals {
			if v > milestone {
				f += raw[i] / total
			}
		}
		return f
	}

	var st PolicyStats
	reachProb := 1.0 // P(the job is still unfinished when this step starts)
	for _, step := range pol.Steps {
		st.ExpectedAttempts += reachProb
		st.ExpectedReserved += reachProb * step.Length
		failProb := survivalPast(step.Milestone)
		if step.Checkpoint && st.SnapshotProb == 0 {
			st.SnapshotProb = failProb
		}
		reachProb = failProb
	}
	if reachProb > 1e-12 {
		return PolicyStats{}, core.ErrUncovered
	}
	for i, v := range vals {
		c, err := pol.Cost(m, p, v)
		if err != nil {
			return PolicyStats{}, err
		}
		st.ExpectedCost += raw[i] / total * c
	}
	return st, nil
}
