// Package dp implements the optimal dynamic programming algorithm for
// discrete execution-time distributions (Theorem 5 of the paper). For
// X ~ (v_i, f_i)_{i=1..n} it computes the reservation sequence
// minimizing the expected cost
//
//	E*_i = min_{i<=j<=n} ( α·v_j + γ + Σ_{k=i..j} f'_k·β·v_k
//	                       + (Σ_{k>j} f'_k)·(β·v_j + E*_{j+1}) )
//
// where f' is the law conditioned on X >= v_i. Each row sweep takes
// O(n log n) on the gated candidate-queue pass (see monotone.go) from
// 64 support points up, and O(n²) on the reference scan below that or
// when the gate trips. The optimal sequence is recovered by
// backtracking the minimizing j at each step; it always ends at v_n.
package dp

import (
	"errors"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
)

// Result is the output of Solve and SolveMaxAttempts.
type Result struct {
	// Sequence is the optimal reservation sequence (a strictly
	// increasing subset of the support ending at v_n).
	Sequence []float64
	// ExpectedCost is the optimal expected cost E*_1 under the
	// (normalized) discrete law.
	ExpectedCost float64
	// Choices[i] is the index j chosen when the conditional law starts
	// at index i (diagnostic; -1 where unreachable). SolveMaxAttempts,
	// whose choices also depend on the attempts left, leaves it nil.
	Choices []int
}

// Solve computes the optimal reservation sequence for a discrete
// distribution under the given cost model. Probabilities are
// renormalized to total mass 1 first (relevant for truncated
// discretizations whose mass is 1-ε).
func Solve(d *dist.Discrete, m core.CostModel) (Result, error) {
	return solve(d, m, autoThreshold)
}

// solve is Solve with the support size from which the row sweep runs
// the queue pass: autoThreshold in production; tests pass 0 or
// math.MaxInt to force the queue or the scan.
func solve(d *dist.Discrete, m core.CostModel, queueFrom int) (Result, error) {
	l, err := newLaw(d, m, queueFrom)
	if err != nil {
		return Result{}, err
	}
	n := len(l.vals)
	E := make([]float64, n+1) // E[i] = E*_i; E[n] = 0
	choice := make([]int, n+1)
	for i := range choice {
		choice[i] = -1
	}
	// The continuation row is the row being filled: both engines commit
	// E[i] before any entry of a lower row reads it.
	l.sweep(E, E, choice)

	// Backtrack the sequence of chosen reservations.
	var seq []float64
	for i := 0; i < n; {
		j := choice[i]
		if j < 0 {
			break
		}
		seq = append(seq, l.vals[j])
		i = j + 1
	}
	return Result{Sequence: seq, ExpectedCost: E[0], Choices: choice}, nil
}

// SolveMaxAttempts computes the optimal reservation sequence when the
// platform allows at most maxAttempts resubmissions per job — a
// constraint real schedulers impose. The DP gains a remaining-budget
// dimension: E*_{i,k} is the optimal cost given X >= v_i with k
// attempts left. Every budget row k >= 2 is one row sweep over row
// k-1, so the cost is maxAttempts times Solve's.
//
// With maxAttempts >= n the result coincides with Solve; with
// maxAttempts = 1 the only feasible plan is the single reservation v_n.
func SolveMaxAttempts(d *dist.Discrete, m core.CostModel, maxAttempts int) (Result, error) {
	return solveMaxAttempts(d, m, maxAttempts, autoThreshold)
}

// solveMaxAttempts is SolveMaxAttempts with solve's queueFrom.
func solveMaxAttempts(d *dist.Discrete, m core.CostModel, maxAttempts, queueFrom int) (Result, error) {
	l, err := newLaw(d, m, queueFrom)
	if err != nil {
		return Result{}, err
	}
	if maxAttempts < 1 {
		return Result{}, errors.New("dp: need at least one attempt")
	}
	E, choice := l.budgetRows(maxAttempts)
	k := len(E) - 1
	cost := E[k][0]
	var seq []float64
	for i := 0; i < len(l.vals) && k > 0; k-- {
		j := choice[k][i]
		if j < 0 {
			break
		}
		seq = append(seq, l.vals[j])
		i = j + 1
	}
	return Result{Sequence: seq, ExpectedCost: cost}, nil
}

// law is a discrete law prepared for the recursion: the support values
// and the suffix sums S[i] = Σ_{k>=i} f_k and W[i] = Σ_{k>=i} f_k v_k
// of the law renormalized to mass 1 (0-based; S[n] = W[n] = 0). Rows
// with S[i] > 0 are active; the others are never reached and cost 0.
type law struct {
	m          core.CostModel
	vals, S, W []float64
	// queueFrom is the support size from which sweep runs the queue pass.
	queueFrom int
	// mx is the queue pass's scratch, built by the first sweep that
	// runs it and reused by the next budget rows.
	mx *monotoneSolver
}

// newLaw validates m and d and builds the suffix sums.
func newLaw(d *dist.Discrete, m core.CostModel, queueFrom int) (law, error) {
	if err := m.Validate(); err != nil {
		return law{}, err
	}
	if d == nil || d.Len() == 0 {
		return law{}, errors.New("dp: empty distribution")
	}
	n := d.Len()
	vals := d.Values()
	raw := d.Probs()
	total := d.Total()
	S := make([]float64, n+1)
	W := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		p := raw[i] / total
		S[i] = S[i+1] + p
		W[i] = W[i+1] + p*vals[i]
	}
	return law{m: m, vals: vals, S: S, W: W, queueFrom: queueFrom}, nil
}

// sweep fills out[i] and choice[i], for every active row i, with the
// minimum over j >= i of entryCost on the continuation row cont and the
// smallest j attaining it. Rows are filled for i = n-1 … 0, so cont
// may be out itself. From queueFrom support points up the gated queue
// pass runs first; below that, or when its gate trips, the reference
// scan fills (or rewrites) every active row.
func (l *law) sweep(cont, out []float64, choice []int) {
	m, vals, S, W := l.m, l.vals, l.S, l.W
	n := len(vals)
	if n >= l.queueFrom {
		if l.mx == nil {
			l.mx = newMonotoneSolver(S)
		}
		mx := l.mx
		mx.at = func(i, j int) float64 { return entryCost(m, vals, S, W, cont, i, j) }
		mx.commit = func(i int) { out[i], choice[i] = mx.best[i], mx.bestJ[i] }
		if mx.run() {
			return
		}
	}
	for i := n - 1; i >= 0; i-- {
		if S[i] > 0 {
			out[i], choice[i] = bestChoice(m, vals, S, W, cont, i, n)
		}
	}
}

// budgetRows fills E[k][i] and choice[k][i] — the optimal cost and
// next index with k attempts left from conditional start i — for
// k = 1 … min(maxAttempts, n); more budget than support points is never
// used. Row 0 is nil.
//
// With one attempt left, every j with mass beyond it is infeasible,
// and among the feasible j >= jLast the cost is nondecreasing in j
// (W[j+1] and S[j+1] are zero there, leaving α·v_j + γ + β·W[i]/S[i]),
// so row 1 is the closed form j = jLast: the last positive-mass index,
// whose reservation covers the whole law. Trailing zero-mass points
// (possible after truncated discretizations) only add α·v_j for a
// larger v_j, so they never win. Every row k >= 2 is then a sweep over
// row k-1, whose entries are all finite.
func (l *law) budgetRows(maxAttempts int) ([][]float64, [][]int) {
	n := len(l.vals)
	K := min(maxAttempts, n)
	E := make([][]float64, K+1)
	choice := make([][]int, K+1)
	for k := 1; k <= K; k++ {
		E[k] = make([]float64, n+1)
		choice[k] = make([]int, n+1)
		for i := range choice[k] {
			choice[k][i] = -1
		}
	}
	jLast := n - 1
	for jLast > 0 && l.S[jLast] <= 0 {
		jLast--
	}
	for i := n - 1; i >= 0; i-- {
		// S[jLast+1] = 0, so the continuation E[1][jLast+1] (an
		// inactive row, 0) is multiplied away.
		if l.S[i] > 0 {
			E[1][i], choice[1][i] = entryCost(l.m, l.vals, l.S, l.W, E[1], i, jLast), jLast
		}
	}
	for k := 2; k <= K; k++ {
		l.sweep(E[k-1], E[k], choice[k])
	}
	return E, choice
}

// entryCost evaluates one entry of the choice matrix: the cost of
// stopping at index j from conditional start i, given the suffix sums S
// and W and the continuation row E (Solve's own row, or the previous
// budget row). It is the single source of the DP's IEEE-754 cost
// expression — the reference scan, the queue pass and its gate all
// evaluate entries through it, which is what makes their answers
// bit-identical.
//
//repro:hotpath
func entryCost(m core.CostModel, vals, S, W, E []float64, i, j int) float64 {
	// Conditional expectation of β·min(X, v_j) given X >= v_i:
	// Σ_{k=i..j} f_k v_k = W[i]-W[j+1]; tail uses v_j.
	return m.Alpha*vals[j] + m.Gamma +
		(m.Beta*(W[i]-W[j+1])+S[j+1]*(m.Beta*vals[j]+E[j+1]))/S[i]
}

// bestChoice is the inner argmin of the reference scan: the cheapest
// next reservation index j for conditional start i. It is the O(n)
// scan executed O(n) times per sweep — the seed implementation,
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
