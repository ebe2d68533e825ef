// monotone.go implements the sub-quadratic inner argmin of the §4.2 DP.
//
// The choice matrix of Solve is, for a conditional start i and a
// candidate stopping index j >= i,
//
//	M[i][j] = α·v_j + γ + (β·(W[i]-W[j+1]) + S[j+1]·(β·v_j + E[j+1]))/S[i]
//	        = c_i + a_j + b_j·x_i,
//
// with x_i = 1/S[i], c_i = γ + β·W[i]/S[i], a_j = α·v_j and
// b_j = β·(S[j+1]·v_j - W[j+1]) + S[j+1]·E[j+1]: every column is an
// affine function of x_i. Because S is a nonincreasing suffix sum, x_i
// is nondecreasing in i, so the difference M[i][j'] - M[i][j] of two
// columns j < j' is monotone in i. In exact arithmetic the slopes b_j
// are nonincreasing in j (larger j shifts mass from the β·v_j tail term
// into the summation), which yields the strict-beat persistence
// property
//
//	j < j', i < i':  M[i][j'] < M[i][j]  ⇒  M[i'][j'] < M[i'][j],
//
// i.e. total monotonicity of the lower-triangular choice matrix. Its
// standard consequence: the smallest-j argmin of row i is nondecreasing
// in i, which is exactly what the SMAWK row optimizer below exploits. The same structure holds for the budgeted
// recursion of SolveMaxAttempts (E replaced by the previous budget row,
// which is finite wherever it is read — the k=0 infeasibility row is
// consumed only by the closed-form k=1 sweep).
//
// Floating point can violate the exact-arithmetic argument (the slopes
// are computed, not assigned), so the fast path never trusts it
// blindly: after a fast solve, an O(n) spot-check gate re-derives a
// sample of cross-row optimality and quadrangle inequalities with the
// exact entry expression and falls back to the O(n²) reference scan on
// the first violation. A debug mode (Config.Verify) re-scans every row
// instead.
//
// Tie-break contract: all engines reproduce bestChoice/bestChoiceBudget
// bit for bit — the smallest j among minimizers, with every evaluated
// entry computed by the identical IEEE-754 expression (entryCost /
// entryCostBudget, shared with the scan). Within one batch of columns
// the engines scan with a strict <, keeping the leftmost winner; across
// batches the divide-and-conquer driver visits column ranges in
// decreasing order, so combining with <= (a later, smaller-j batch wins
// ties) restores the global smallest-j winner.
package dp

import (
	"math"
	"sync/atomic"
)

// Algorithm selects the inner argmin engine of Solve and
// SolveMaxAttempts.
type Algorithm int

const (
	// AlgoAuto uses the SMAWK fast path (with the monotonicity gate)
	// above autoThreshold support points and the plain scan below it,
	// where the quadratic constant is already negligible.
	AlgoAuto Algorithm = iota
	// AlgoScan is the reference O(n²) row scan of the seed
	// implementation (bestChoice / bestChoiceBudget). It is retained
	// verbatim as the fallback target and the benchmark baseline.
	AlgoScan
	// AlgoSMAWK is the SMAWK totally-monotone matrix searcher applied to
	// the driver's rectangular merges: O(n log n) per solve.
	AlgoSMAWK
)

// String implements fmt.Stringer (test and benchmark labels).
func (a Algorithm) String() string {
	switch a {
	case AlgoScan:
		return "scan"
	case AlgoSMAWK:
		return "smawk"
	default:
		return "auto"
	}
}

// Config tunes SolveWith and SolveMaxAttemptsWith. The zero value —
// AlgoAuto without per-row verification — is what Solve and
// SolveMaxAttempts use and is always safe: fast-path answers are gated
// and fall back to the exact scan on any monotonicity violation.
type Config struct {
	// Algo selects the argmin engine.
	Algo Algorithm
	// Verify additionally cross-checks every fast-path row against a
	// full reference scan (O(n²), debug only). Any mismatch — value or
	// winning index — discards the fast result and falls back.
	Verify bool
}

// autoThreshold is the support size below which AlgoAuto keeps the
// plain scan: the fast path's recursion and gate overhead only pay for
// themselves once the O(n²) scan dominates.
const autoThreshold = 128

// engine resolves the configured algorithm for a support of size n.
func (c Config) engine(n int) Algorithm {
	if c.Algo == AlgoAuto {
		if n < autoThreshold {
			return AlgoScan
		}
		return AlgoSMAWK
	}
	return c.Algo
}

var fallbackCount atomic.Uint64

// Fallbacks returns the cumulative number of fast-path solves (or
// budgeted row sweeps) that the gate or verifier abandoned to the
// reference scan. Diagnostic: steadily increasing counts mean the
// instance family violates total monotonicity and AlgoScan would be
// cheaper.
func Fallbacks() uint64 { return fallbackCount.Load() }

// monotoneSolver carries one argmin problem over a lower-triangular
// choice matrix: entries at(i, j) for rows i with positive conditional
// mass and columns j in [i, n). The at and commit functions are plain
// struct fields (not an interface) so tests can inject synthetic
// matrices — real instances empirically never violate total
// monotonicity, so the gate's fallback is only reachable through a
// synthetic seam — while the engines stay monomorphic and
// allocation-free.
//
// All scratch is preallocated by newMonotoneSolver; run, the engines
// and the gate allocate nothing.
//
//repro:hotpath
type monotoneSolver struct {
	// at evaluates one matrix entry with the exact scan expression.
	at func(i, j int) float64
	// commit finalizes row i once every column batch has been folded:
	// for Solve it publishes E[i] (read back through at by merges of
	// earlier rows) and choice[i].
	commit func(i int)

	n    int
	rows []int  // rows with positive conditional mass, ascending
	act  []bool // act[i] reports whether i is in rows

	// Running per-row combine across column batches (+Inf / -1 until
	// the first batch lands). After run returns, best/bestJ hold the
	// final row minima — the gate reads them directly.
	best  []float64
	bestJ []int

	// SMAWK scratch: batchVal/batchCol hold each row's current-batch
	// minimum (indexed by position in rows); arena backs the materialized
	// column list and the per-level reduced column stacks.
	batchVal []float64
	batchCol []int
	arena    []int
}

// newMonotoneSolver allocates a solver for an n-point support. The
// caller fills rows/act and sets at/commit (per budget sweep, for the
// budgeted DP) and calls reset before each run.
func newMonotoneSolver(n int) *monotoneSolver {
	return &monotoneSolver{
		n:        n,
		rows:     make([]int, 0, n),
		act:      make([]bool, n),
		best:     make([]float64, n),
		bestJ:    make([]int, n),
		batchVal: make([]float64, n),
		batchCol: make([]int, n),
		// One column materialization (≤ n) plus the geometric stack of
		// reduced column lists (≤ 2n) for the deepest SMAWK call.
		arena: make([]int, 3*n+8),
	}
}

// reset clears the per-run combine state.
func (s *monotoneSolver) reset() {
	for i := 0; i < s.n; i++ {
		s.best[i] = math.Inf(1)
		s.bestJ[i] = -1
	}
}

// run executes the fast path, gates the result, and reports whether it
// stands. On false the caller must recompute with the reference scan;
// best/bestJ (and anything commit published) hold unusable partial
// state.
func (s *monotoneSolver) run(verify bool) bool {
	s.cdq(0, s.n)
	if !s.gate() || (verify && !s.verifyAll()) {
		fallbackCount.Add(1)
		return false
	}
	return true
}

// cdq is the offline divide-and-conquer driver. Invariant: every row
// >= hi is already committed, so at(i, j) is evaluable for any j in
// [mid, hi) once cdq(mid, hi) returns. The recursion first finishes the
// right half, then folds the rectangular batch rows [lo, mid) × cols
// [mid, hi) with SMAWK, then descends into the left half;
// a leaf folds its own diagonal column and commits. Each row therefore
// receives its column batches in decreasing column order, ending with
// j = i — the order the <= combine in foldRow relies on for the
// smallest-j tie-break.
func (s *monotoneSolver) cdq(lo, hi int) {
	if hi-lo == 1 {
		if s.act[lo] {
			s.foldRow(lo, s.at(lo, lo), lo)
			s.commit(lo)
		}
		return
	}
	mid := (lo + hi) / 2
	s.cdq(mid, hi)
	rlo := lowerBound(s.rows, lo)
	rhi := lowerBound(s.rows, mid)
	if rlo < rhi {
		s.smawkBatch(rlo, rhi, mid, hi)
	}
	s.cdq(lo, mid)
}

// foldRow merges one batch minimum (v at column j) into row i's running
// winner. Batches arrive in decreasing column ranges, so <= lets the
// later — smaller-j — batch take ties, reproducing the scan's leftmost
// winner; the value itself is bit-identical either way (both sides of a
// tie are the same float).
func (s *monotoneSolver) foldRow(i int, v float64, j int) {
	if v <= s.best[i] {
		s.best[i] = v
		s.bestJ[i] = j
	}
}

// smawkBatch computes the batch row minima of active rows [rlo, rhi)
// (positions in s.rows) over columns [clo, chi) with the SMAWK
// algorithm: O(R + C) entry evaluations per batch. The column range is
// materialized into the arena; smawkRec then owns the rest of the
// arena for its per-level reduced column lists.
func (s *monotoneSolver) smawkBatch(rlo, rhi, clo, chi int) {
	w := 0
	for c := clo; c < chi; c++ {
		s.arena[w] = c
		w++
	}
	s.smawkRec(rlo, 1, rhi-rlo, s.arena[:w], s.arena[w:])
	for p := rlo; p < rhi; p++ {
		s.foldRow(s.rows[p], s.batchVal[p], s.batchCol[p])
	}
}

// smawkRec solves the row-minima problem for the rcount rows at
// positions rbase, rbase+rstride, ... of s.rows against the given
// column list, writing each row's leftmost batch minimum into
// batchVal/batchCol. arena provides scratch for the reduced column
// list; deeper levels use what remains beyond it.
//
// REDUCE keeps at most rcount columns: a new column pops the stack top
// only when it strictly beats it on the top's diagonal row (ties keep
// the earlier, smaller column), and is dropped when the stack is full
// and it cannot beat the bottom row's entry — by strict-beat
// persistence it then loses (or ties, which the leftmost rule resolves
// to the incumbent) on every stacked row. INTERPOLATE solves the odd
// positions recursively and scans each even row between its neighbours'
// argmin columns with a strict <, which yields the leftmost winner
// because leftmost argmin columns are nondecreasing across rows.
func (s *monotoneSolver) smawkRec(rbase, rstride, rcount int, cols, arena []int) {
	if rcount <= 0 {
		return
	}
	// REDUCE.
	rlen := 0
	for ci := 0; ci < len(cols); ci++ {
		c := cols[ci]
		for rlen > 0 {
			p := rlen - 1
			i := s.rows[rbase+p*rstride]
			if s.at(i, arena[p]) > s.at(i, c) {
				rlen--
			} else {
				break
			}
		}
		if rlen < rcount {
			arena[rlen] = c
			rlen++
		}
	}
	red := arena[:rlen]
	if rcount == 1 {
		i := s.rows[rbase]
		bv := math.Inf(1)
		bc := -1
		for ci := 0; ci < rlen; ci++ {
			if v := s.at(i, red[ci]); v < bv {
				bv, bc = v, red[ci]
			}
		}
		s.batchVal[rbase] = bv
		s.batchCol[rbase] = bc
		return
	}
	s.smawkRec(rbase+rstride, 2*rstride, rcount/2, red, arena[rlen:])
	// INTERPOLATE even positions. ci walks the reduced columns once:
	// row p scans from its predecessor's argmin column (where ci was
	// left) through its successor's, inclusive.
	ci := 0
	for p := 0; p < rcount; p += 2 {
		pos := rbase + p*rstride
		i := s.rows[pos]
		hiCol := red[rlen-1]
		if p+1 < rcount {
			hiCol = s.batchCol[rbase+(p+1)*rstride]
		}
		bv := math.Inf(1)
		bc := -1
		for {
			c := red[ci]
			if v := s.at(i, c); v < bv {
				bv, bc = v, c
			}
			if c >= hiCol || ci+1 >= rlen {
				break
			}
			ci++
		}
		s.batchVal[pos] = bv
		s.batchCol[pos] = bc
	}
}

// gate spot-checks the fast-path answer with O(n) extra entry
// evaluations and reports whether it is consistent with the reference
// scan's contract. Every check is sound: a failure proves the fast
// result differs from the scan (wrong value, wrong index, or a
// tie broken away from the smallest j), so a fallback is forced; a
// pass is strong evidence, not proof — Config.Verify upgrades it to a
// full per-row comparison.
//
// Checked, for geometrically strided pairs of active rows i < i2 with
// winners (j, j2):
//   - argmin monotonicity: j <= j2 (total monotonicity's consequence);
//   - cross-row optimality, the 2×2 quadrangle of the claimed winners:
//     column j2 must not beat (or, left of it, tie) row i's winner, and
//     column j — when feasible for row i2 — must not beat or tie row
//     i2's winner (a tie there means the scan's smallest-j rule would
//     have picked j over j2).
func (s *monotoneSolver) gate() bool {
	nr := len(s.rows)
	for st := 1; st < nr; st *= 2 {
		for p := 0; p+st < nr; p += st {
			if !s.checkPair(p, p+st) {
				return false
			}
		}
	}
	return true
}

// checkPair validates the winners of the active rows at positions p1 <
// p2 against each other. See gate.
func (s *monotoneSolver) checkPair(p1, p2 int) bool {
	i1, i2 := s.rows[p1], s.rows[p2]
	j1, j2 := s.bestJ[i1], s.bestJ[i2]
	if j1 < i1 || j2 < i2 || j1 > j2 {
		return false
	}
	if j2 > j1 {
		if s.at(i1, j2) < s.best[i1] {
			return false // row i1 prefers the later winner: wrong argmin
		}
		if j1 >= i2 && s.at(i2, j1) <= s.best[i2] {
			return false // row i2 prefers (or ties) the earlier column
		}
	}
	return true
}

// verifyAll is the Config.Verify mode: every active row is re-scanned in
// full with the exact entry expression, and the fast answer must match
// bit for bit — value and winning index.
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

// lowerBound returns the first index k with a[k] >= x, or len(a).
func lowerBound(a []int, x int) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
