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
// i.e. a smaller column wins-or-ties a larger one on a prefix of rows.
// The same structure holds for the budgeted recursion of
// SolveMaxAttempts (E replaced by the previous budget row, which is
// finite everywhere).
//
// The engine is the candidate-queue pass for least-weight-subsequence
// DPs (Hirschberg & Larmore, 1987): rows are visited for i = n-1 … 0,
// column j = i joins at row i (its entries need E[i+1], committed one
// step earlier), and a queue of columns records which column each
// remaining row currently prefers. By persistence each column owns a
// contiguous range of rows, smaller columns owning lower rows, so a new
// column only ever displaces entries at the low end, and each row reads
// its winner from the high end. O(n log n) entry evaluations per solve.
//
// Floating point can violate the exact-arithmetic argument (the slopes
// are computed, not assigned), so the fast path never trusts it
// blindly: after a fast solve, an O(n) gate re-derives a set of
// optimality conditions with the exact entry expression and falls back
// to the O(n²) reference scan on the first violation. The full per-row
// rescan that upgrades the gate to proof lives in the tests.
//
// Tie-break contract: the engine reproduces bestChoice bit for bit —
// the smallest j among minimizers, with every evaluated entry computed
// by the identical IEEE-754 expression (entryCost, shared with the
// scan). The queue compares a new (smaller) column against an
// incumbent with <=, so ties go to the smaller j; persistence makes
// that the scan's smallest-j argmin.
package dp

import "sync/atomic"

// autoThreshold is the support size below which a sweep keeps the
// plain scan. On the benchmark law (LogNormal(3, 0.5),
// EqualProbability; BenchmarkEngineCrossover in this package, median
// of 5 on a 2-vCPU Xeon) the gated queue pass overtakes the scan
// between n = 32 (4.7 vs 3.4 µs) and n = 64 (9.8 vs 10.8 µs), and is
// 1.8× faster at n = 128.
const autoThreshold = 64

var fallbackCount atomic.Uint64

// Fallbacks returns the cumulative number of queue-pass sweeps (one per
// Solve, one per budget row k >= 2 of SolveMaxAttempts) that the gate
// abandoned to the reference scan. Diagnostic: steadily increasing
// counts mean the instance family violates total monotonicity, so each
// of its sweeps pays for the pass and the scan.
func Fallbacks() uint64 { return fallbackCount.Load() }

// monotoneSolver carries one argmin problem over a lower-triangular
// choice matrix: entries at(i, j) for rows i with positive conditional
// mass and columns j in [i, n). The at and commit functions are plain
// struct fields (not an interface) so tests can inject synthetic
// matrices — real instances empirically never violate total
// monotonicity, so the gate's fallback is only reachable through a
// synthetic seam — while the engine stays monomorphic and
// allocation-free.
//
// All scratch is preallocated by newMonotoneSolver; run, the pass and
// the gate allocate nothing.
//
//repro:hotpath
type monotoneSolver struct {
	// at evaluates one matrix entry with the exact scan expression.
	at func(i, j int) float64
	// commit finalizes row i once its winner is known: for Solve it
	// publishes E[i] (read back through at when column i-1 joins) and
	// choice[i].
	commit func(i int)

	n    int
	rows []int // rows with positive conditional mass, ascending

	// Per-row winners. After run returns, best/bestJ hold the final row
	// minima of every active row — the gate reads them directly.
	best  []float64
	bestJ []int

	// The candidate queue, live in [head, top): qCol[k] is a column and
	// qHi[k] the highest row position (index into rows) it owns; entry
	// k owns positions (qHi[k+1], qHi[k]], and the top entry — the
	// smallest column — owns every position from 0 up.
	qCol []int
	qHi  []int
}

// newMonotoneSolver allocates a solver over the n = len(S)-1 columns
// of a support whose suffix masses are S; the active rows are those
// with S[i] > 0. law.sweep sets at/commit before each run.
func newMonotoneSolver(S []float64) *monotoneSolver {
	n := len(S) - 1
	s := &monotoneSolver{
		n:     n,
		rows:  make([]int, 0, n),
		best:  make([]float64, n),
		bestJ: make([]int, n),
		qCol:  make([]int, n),
		qHi:   make([]int, n),
	}
	for i := 0; i < n; i++ {
		if S[i] > 0 {
			s.rows = append(s.rows, i)
		}
	}
	return s
}

// run executes the fast path, gates the result, and reports whether it
// stands. On false the caller must recompute with the reference scan;
// best/bestJ (and anything commit published) hold unusable state.
func (s *monotoneSolver) run() bool {
	s.pass()
	if !s.gate() {
		fallbackCount.Add(1)
		return false
	}
	return true
}

// pass is the candidate-queue engine. At step i column i joins the
// queue and, if row i is active, row i reads its winner from the
// bottom entry and commits. A joining column j is smaller than every
// queued column, so by persistence it wins-or-ties each of them on a
// prefix of rows: it pops every top entry it wins-or-ties at that
// entry's highest owned row, then binary-searches its boundary inside
// the next entry, and is pushed only if it owns at least one row. Both
// comparisons use <=, handing ties to the smaller column. Every column
// is pushed at most once, so the pops total O(n) and each join costs
// one O(log n) search.
func (s *monotoneSolver) pass() {
	head, top := 0, 0
	pos := len(s.rows) - 1 // highest remaining row position
	for i := s.n - 1; i >= 0; i-- {
		for pos >= 0 && s.rows[pos] > i {
			pos--
		}
		if pos < 0 {
			return // no active row at or below i: no column is read again
		}
		// Retire bottom entries whose rows are all done; the new bottom
		// owns every remaining row up to pos.
		for head+1 < top && s.qHi[head+1] >= pos {
			head++
		}
		if head < top {
			s.qHi[head] = pos
		}
		// Column i joins; into an empty queue it owns every row.
		own := -1 // highest row position column i owns
		if top == head {
			own = pos
		}
		for top > head {
			c, h := s.qCol[top-1], s.qHi[top-1]
			if r := s.rows[h]; s.at(r, i) <= s.at(r, c) {
				own = h
				top--
				continue
			}
			lo, hi := own+1, h // first position in [lo, h) where c beats i
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if r := s.rows[mid]; s.at(r, i) <= s.at(r, c) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			own = lo - 1
			break
		}
		if own >= 0 {
			s.qCol[top], s.qHi[top] = i, own
			top++
		}
		if s.rows[pos] == i {
			j := s.qCol[head]
			s.best[i], s.bestJ[i] = s.at(i, j), j
			s.commit(i)
		}
	}
}

// gate spot-checks the fast-path answer with O(n) extra entry
// evaluations and reports whether it is consistent with the reference
// scan's contract. Every check is sound: a failure proves the fast
// result differs from the scan (wrong value, wrong index, or a tie
// broken away from the smallest j), so a fallback is forced; a pass is
// strong evidence, not proof — only a full per-row rescan (the tests'
// verifyAll) is.
//
// Checked, for every active row i with winner j: column j+1 must not
// beat it, and column j-1 (when feasible, j-1 >= i) must not beat or
// tie it. Then, for geometrically strided pairs of active rows i < i2
// with winners (j, j2): j <= j2 (which the queue guarantees by
// construction), and the 2×2 quadrangle of the claimed winners —
// column j2 must not beat row i's winner, and column j, when feasible
// for row i2, must not beat or tie row i2's winner (a tie there means
// the scan's smallest-j rule would have picked j over j2). The
// neighbour check catches what the pair check cannot: wrong winners
// shared by a whole block of rows.
func (s *monotoneSolver) gate() bool {
	for _, i := range s.rows {
		j, b := s.bestJ[i], s.best[i]
		if j+1 < s.n && s.at(i, j+1) < b {
			return false
		}
		if j-1 >= i && s.at(i, j-1) <= b {
			return false
		}
	}
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
