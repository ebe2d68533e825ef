// Package dp implements the optimal dynamic programming algorithm for
// discrete execution-time distributions (Theorem 5 of the paper). For
// X ~ (v_i, f_i)_{i=1..n} it computes — in O(n log n) on the default
// gated candidate-queue pass (see monotone.go), O(n²) under the
// reference scan — the reservation sequence minimizing the expected
// cost
//
//	E*_i = min_{i<=j<=n} ( α·v_j + γ + Σ_{k=i..j} f'_k·β·v_k
//	                       + (Σ_{k>j} f'_k)·(β·v_j + E*_{j+1}) )
//
// where f' is the law conditioned on X >= v_i. The optimal sequence is
// recovered by backtracking the minimizing j at each step; it always
// ends at v_n.
package dp

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
)

// Result is the output of Solve.
type Result struct {
	// Sequence is the optimal reservation sequence (a strictly
	// increasing subset of the support ending at v_n).
	Sequence []float64
	// ExpectedCost is the optimal expected cost E*_1 under the
	// (normalized) discrete law.
	ExpectedCost float64
	// Choices[i] is the index j chosen when the conditional law starts
	// at index i (diagnostic; -1 where unreachable).
	Choices []int
}

// Solve computes the optimal reservation sequence for a discrete
// distribution under the given cost model. Probabilities are
// renormalized to total mass 1 first (relevant for truncated
// discretizations whose mass is 1-ε). It is SolveWith under the
// default Config: the gated sub-quadratic argmin above the size
// threshold, the plain scan below it.
func Solve(d *dist.Discrete, m core.CostModel) (Result, error) {
	return SolveWith(d, m, Config{})
}

// SolveWith is Solve with an explicit argmin engine selection (see
// Config). Every Algorithm returns bit-identical results — the fast
// engine reproduces the scan's smallest-j tie-break and entry
// arithmetic exactly, and falls back to the scan whenever its gate
// trips.
func SolveWith(d *dist.Discrete, m core.CostModel, cfg Config) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if d == nil || d.Len() == 0 {
		return Result{}, errors.New("dp: empty distribution")
	}
	n := d.Len()
	vals := d.Values()
	raw := d.Probs()
	total := d.Total()

	probs := make([]float64, n)
	for i := range raw {
		probs[i] = raw[i] / total
	}

	// Suffix sums: S[i] = Σ_{k>=i} f_k, W[i] = Σ_{k>=i} f_k v_k
	// (0-based; S[n] = W[n] = 0).
	S := make([]float64, n+1)
	W := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		S[i] = S[i+1] + probs[i]
		W[i] = W[i+1] + probs[i]*vals[i]
	}

	E := make([]float64, n+1) // E[i] = E*_i; E[n] = 0
	choice := make([]int, n+1)
	for i := range choice {
		choice[i] = -1
	}

	scan := func() {
		for i := n - 1; i >= 0; i-- {
			if S[i] <= 0 {
				// No mass at or above v_i: never reached; cost 0.
				E[i] = 0
				continue
			}
			E[i], choice[i] = bestChoice(m, vals, S, W, E, i, n)
		}
	}
	if cfg.engine(n) == AlgoScan {
		scan()
	} else {
		mx := newMonotoneSolver(S)
		mx.at = func(i, j int) float64 { return entryCost(m, vals, S, W, E, i, j) }
		mx.commit = func(i int) { E[i], choice[i] = mx.best[i], mx.bestJ[i] }
		if !mx.run(cfg.Verify) {
			// Gate violation: rerun the reference scan, which rewrites
			// every row the pass committed.
			scan()
		}
	}

	// Backtrack the sequence of chosen reservations.
	var seq []float64
	for i := 0; i < n; {
		j := choice[i]
		if j < 0 {
			break
		}
		seq = append(seq, vals[j])
		i = j + 1
	}
	return Result{Sequence: seq, ExpectedCost: E[0], Choices: choice}, nil
}

// SolveMaxAttempts computes the optimal reservation sequence when the
// platform allows at most maxAttempts resubmissions per job — a
// constraint real schedulers impose. The DP gains a remaining-budget
// dimension: E*_{i,k} is the optimal cost given X >= v_i with k
// attempts left, and any state with fewer attempts than needed to reach
// v_n is infeasible. Complexity O(maxAttempts · n log n) on the default
// fast path, O(maxAttempts · n²) under AlgoScan or after a gate
// fallback.
//
// With maxAttempts >= n the result coincides with Solve; with
// maxAttempts = 1 the only feasible plan is the single reservation v_n.
func SolveMaxAttempts(d *dist.Discrete, m core.CostModel, maxAttempts int) (Result, error) {
	return SolveMaxAttemptsWith(d, m, maxAttempts, Config{})
}

// SolveMaxAttemptsWith is SolveMaxAttempts with an explicit argmin
// engine selection; as with SolveWith, every Algorithm returns
// bit-identical results. The budgeted recursion is a sequence of
// offline row sweeps (row k reads only row k-1), so each sweep above
// the size threshold runs the same gated engine and falls back to the
// scan independently.
func SolveMaxAttemptsWith(d *dist.Discrete, m core.CostModel, maxAttempts int, cfg Config) (Result, error) {
	if err := m.Validate(); err != nil {
		return Result{}, err
	}
	if d == nil || d.Len() == 0 {
		return Result{}, errors.New("dp: empty distribution")
	}
	if maxAttempts < 1 {
		return Result{}, errors.New("dp: need at least one attempt")
	}
	n := d.Len()
	if maxAttempts > n {
		maxAttempts = n // more budget than support points is never used
	}
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
	// jLast is the last positive-mass index: reserving vals[jLast]
	// covers the whole law (S[jLast+1] == 0), so it is the unique
	// stopping point a single remaining attempt can pick. Trailing
	// zero-mass points (possible after truncated discretizations) only
	// add α·v_j for a larger v_j, so they never win.
	jLast := n - 1
	for jLast > 0 && S[jLast] <= 0 {
		jLast--
	}

	// E[k][i], choice[k][i]: k attempts remaining, conditional start i.
	// k=0 row: infeasible unless no mass remains.
	inf := math.Inf(1)
	E := make([][]float64, maxAttempts+1)
	choice := make([][]int, maxAttempts+1)
	for k := range E {
		E[k] = make([]float64, n+1)
		choice[k] = make([]int, n+1)
		for i := range E[k] {
			choice[k][i] = -1
			if k == 0 && i < n && S[i] > 0 {
				E[k][i] = inf
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		if S[i] <= 0 {
			continue
		}
		// One attempt left: every j with mass beyond it has an
		// infeasible (+Inf) continuation, and among the feasible
		// j >= jLast the cost is nondecreasing in j (W[j+1] and
		// S[j+1] are zero there, leaving α·v_j + γ + β·W[i]/S[i]),
		// so the scan always lands on jLast. Same arithmetic as
		// the general branch with cont = 0.
		j := jLast
		E[1][i] = m.Alpha*vals[j] + m.Gamma +
			(m.Beta*(W[i]-W[j+1])+S[j+1]*(m.Beta*vals[j]+0.0))/S[i]
		choice[1][i] = j
	}
	// Rows k >= 2 are offline argmin sweeps over E[k-1]. A continuation
	// that cannot cover the tail would carry E[k-1][j+1] = +Inf
	// (propagated up from the k=0 row) and is never selected inside
	// entryCostBudget — though with the k=1 row closed-form above, every
	// continuation a k >= 2 sweep reads is in fact finite.
	var mx *monotoneSolver
	if cfg.engine(n) != AlgoScan && maxAttempts >= 2 {
		mx = newMonotoneSolver(S)
	}
	for k := 2; k <= maxAttempts; k++ {
		prev, cur, curChoice := E[k-1], E[k], choice[k]
		scan := func() {
			for i := n - 1; i >= 0; i-- {
				if S[i] <= 0 {
					continue
				}
				cur[i], curChoice[i] = bestChoiceBudget(m, vals, S, W, prev, i, n)
			}
		}
		if mx == nil {
			scan()
			continue
		}
		mx.at = func(i, j int) float64 { return entryCostBudget(m, vals, S, W, prev, i, j) }
		mx.commit = func(i int) { cur[i], curChoice[i] = mx.best[i], mx.bestJ[i] }
		if !mx.run(cfg.Verify) {
			// Gate violation on this sweep: recompute it with the
			// reference scan (the sweep only reads prev, so the partial
			// fast state is fully overwritten row by row).
			scan()
		}
	}
	if math.IsInf(E[maxAttempts][0], 1) {
		return Result{}, errors.New("dp: attempt budget cannot cover the support")
	}
	var seq []float64
	k := maxAttempts
	for i := 0; i < n && k > 0; {
		j := choice[k][i]
		if j < 0 {
			break
		}
		seq = append(seq, vals[j])
		i = j + 1
		k--
	}
	return Result{Sequence: seq, ExpectedCost: E[maxAttempts][0]}, nil
}

// entryCost evaluates one entry of Solve's choice matrix: the cost of
// stopping at index j from conditional start i, given the suffix sums S
// and W and the already-filled continuation row E. It is the single
// source of the DP's IEEE-754 cost expression — the reference scan and
// every fast engine (and the gate) evaluate entries through it, which
// is what makes their answers bit-identical.
//
//repro:hotpath
func entryCost(m core.CostModel, vals, S, W, E []float64, i, j int) float64 {
	// Conditional expectation of β·min(X, v_j) given X >= v_i:
	// Σ_{k=i..j} f_k v_k = W[i]-W[j+1]; tail uses v_j.
	return m.Alpha*vals[j] + m.Gamma +
		(m.Beta*(W[i]-W[j+1])+S[j+1]*(m.Beta*vals[j]+E[j+1]))/S[i]
}

// entryCostBudget is entryCost for the attempt-budgeted recursion of
// SolveMaxAttempts: prev is the E[k-1] row. An infeasible (+Inf)
// continuation propagates as a +Inf entry, which no argmin ever
// selects — the exact effect of the seed scan's skip. (j < n implies
// j+1 <= n, so S[j+1] is always in bounds.)
//
//repro:hotpath
func entryCostBudget(m core.CostModel, vals, S, W, prev []float64, i, j int) float64 {
	cont := 0.0
	if S[j+1] > 0 {
		cont = prev[j+1]
		if math.IsInf(cont, 1) {
			return cont // infeasible continuation: never a winner
		}
	}
	return m.Alpha*vals[j] + m.Gamma +
		(m.Beta*(W[i]-W[j+1])+S[j+1]*(m.Beta*vals[j]+cont))/S[i]
}

// bestChoice is the inner argmin of Solve's reference scan: the
// cheapest next reservation index j for conditional start i. It is the
// O(n) scan executed O(n) times per solve — the seed implementation,
// retained as the small-n path, the gate's fallback target and the
// benchmark baseline — extracted so the hotalloc analyzers and the
// cmd/lint -escapes gate cover it.
//
//repro:hotpath
func bestChoice(m core.CostModel, vals, S, W, E []float64, i, n int) (float64, int) {
	best := math.Inf(1)
	bestJ := -1
	for j := i; j < n; j++ {
		cost := entryCost(m, vals, S, W, E, i, j)
		if cost < best {
			best = cost
			bestJ = j
		}
	}
	return best, bestJ
}

// bestChoiceBudget is bestChoice over entryCostBudget (the E[k-1] row
// prev supplies continuations). A +Inf entry — infeasible continuation
// — never passes the strict <, reproducing the seed's explicit skip.
//
//repro:hotpath
func bestChoiceBudget(m core.CostModel, vals, S, W, prev []float64, i, n int) (float64, int) {
	best := math.Inf(1)
	bestJ := -1
	for j := i; j < n; j++ {
		cost := entryCostBudget(m, vals, S, W, prev, i, j)
		if cost < best {
			best = cost
			bestJ = j
		}
	}
	return best, bestJ
}
