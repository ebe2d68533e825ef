package strategy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/simulate"
)

// EvalMode selects how a candidate sequence is scored.
type EvalMode int

const (
	// EvalMonteCarlo scores candidates with the paper's Eq.-(13)
	// protocol: the average cost over N sampled execution times. All
	// candidates share one sample set drawn from the configured seed.
	EvalMonteCarlo EvalMode = iota
	// EvalAnalytic scores candidates with the deterministic closed form
	// of Eq. (4) — free of Monte-Carlo noise and of the selection bias
	// that a minimum over thousands of noisy estimates incurs.
	EvalAnalytic
)

// String implements fmt.Stringer.
func (e EvalMode) String() string {
	if e == EvalAnalytic {
		return "analytic"
	}
	return "monte-carlo"
}

// BruteForce is the BRUTE-FORCE procedure of §4.1: try M values of the
// first reservation t1 equally spaced on [a, min(b, A1)], expand each
// candidate with the Eq.-(11) recurrence, discard candidates whose
// sequence is not strictly increasing, score the rest, and keep the
// best.
type BruteForce struct {
	// M is the number of grid points (paper: 5000). Zero selects 5000.
	M int
	// N is the Monte-Carlo sample count (paper: 1000). Zero selects
	// 1000. Ignored under EvalAnalytic.
	N int
	// Mode selects Monte-Carlo (paper protocol, default) or analytic
	// scoring.
	Mode EvalMode
	// Seed drives the Monte-Carlo sample set.
	Seed uint64
	// TailEps is the survival level below which a recurrence breakdown
	// is tolerated (see core.SequenceFromFirstTail). Zero selects
	// core.DefaultTailEps; negative forces the strict rule.
	TailEps float64
	// Workers bounds evaluation parallelism (0 = GOMAXPROCS).
	Workers int
	// FullCosts disables the analytic budget prune in Search so every
	// grid point's exact cost is recorded in Candidates — required by
	// Fig.-3-style analyses that plot the whole cost curve. The default
	// (false) abandons a candidate as soon as its Eq.-(4) partial sum
	// exceeds the worker block's best cost, which never changes the
	// winner (see core.CostCursor.CostBudget) but leaves pruned
	// Candidates entries holding only a lower bound. Search records
	// every Monte-Carlo candidate exactly whatever FullCosts says.
	// Sequence records nothing and always prunes, in both modes.
	FullCosts bool
}

// Name implements Strategy.
func (BruteForce) Name() string { return "Brute-Force" }

// Candidate is one evaluated grid point of the brute-force search.
type Candidate struct {
	// T1 is the first reservation length.
	T1 float64
	// Cost is the estimated expected cost (NaN when invalid).
	Cost float64
	// Valid reports whether the Eq.-(11) expansion stayed strictly
	// increasing (within the tail tolerance).
	Valid bool
	// Pruned marks a candidate abandoned by a budgeted score
	// (core.CostCursor.CostBudget or simulate.Workload.Cost): Cost
	// then holds only the partial Eq.-(4) sum, or Eq.-(13) mean,
	// accumulated before the abort — an admissible lower bound on the
	// true cost, already above the block's best — and Valid is false
	// because the unscanned tail of the recurrence was never checked.
	// Which candidates get pruned (and their partial values) depends on
	// scan order and worker count; only the winner is canonical. Search
	// prunes analytic candidates only, unless FullCosts is set.
	Pruned bool
}

// SearchResult is the full outcome of a brute-force scan.
type SearchResult struct {
	// Best is the winning candidate.
	Best Candidate
	// Sequence is the winning sequence.
	Sequence *core.Sequence
	// Candidates holds every grid point in scan order (for Fig. 3 /
	// Table 3 style analyses).
	Candidates []Candidate
}

func (b BruteForce) params() (m, n int, tailEps float64) {
	m, n = b.M, b.N
	if m <= 0 {
		m = 5000
	}
	if n <= 0 {
		n = simulate.DefaultSamples
	}
	return m, n, tailTolerance(b.TailEps)
}

// tailTolerance resolves a TailEps field: zero selects
// core.DefaultTailEps and a negative value the strict rule.
func tailTolerance(eps float64) float64 {
	if eps == 0 {
		return core.DefaultTailEps
	}
	if eps < 0 {
		return 0
	}
	return eps
}

// EvaluateT1 scores a single first-reservation candidate under the
// configured mode, returning the candidate record and its sequence.
// Monte-Carlo scoring builds a throwaway Workload from the samples;
// callers scoring many candidates on one sample set should build the
// Workload once and use EvaluateT1On instead.
func (b BruteForce) EvaluateT1(m core.CostModel, d dist.Distribution, t1 float64, samples []float64) (Candidate, *core.Sequence) {
	var wl *simulate.Workload
	if b.Mode != EvalAnalytic && samples != nil {
		wl = simulate.NewWorkload(samples)
	}
	return b.EvaluateT1On(m, d, t1, wl)
}

// EvaluateT1On scores a single candidate against a shared Workload
// (Monte-Carlo protocol) or, when wl is nil or the mode is analytic,
// with the deterministic Eq.-(4) closed form, streamed through a
// core.CostCursor (no Sequence is materialized unless the candidate is
// valid and its sequence is returned).
func (b BruteForce) EvaluateT1On(m core.CostModel, d dist.Distribution, t1 float64, wl *simulate.Workload) (Candidate, *core.Sequence) {
	_, _, tailEps := b.params()
	if b.Mode == EvalAnalytic || wl == nil {
		cur := core.NewCostCursor(m, d, tailEps)
		c := evalAnalytic(t1, math.Inf(1), &cur)
		if !c.Valid {
			return c, nil
		}
		return c, core.SequenceFromFirstTail(m, d, t1, tailEps)
	}
	cur := core.NewRecurrenceCursor(m, d, t1, tailEps)
	c := evalWorkload(m, t1, math.Inf(1), wl, &cur)
	if !c.Valid {
		return c, nil
	}
	return c, core.SequenceFromFirstTail(m, d, t1, tailEps)
}

// evalWorkload scores one candidate through the allocation-free
// recurrence cursor, abandoning it once its partial mean exceeds
// budget: no Sequence is built, no clone taken. The caller owns the
// cursor (already positioned at t1) and may reuse it across candidates
// via Reset.
//
//repro:hotpath
func evalWorkload(m core.CostModel, t1, budget float64, wl *simulate.Workload, cur *core.RecurrenceCursor) Candidate {
	cost, pruned, err := wl.Cost(m, cur, budget)
	if err != nil || math.IsNaN(cost) || math.IsInf(cost, 1) {
		return Candidate{T1: t1, Cost: math.NaN()}
	}
	if pruned {
		return Candidate{T1: t1, Cost: cost, Pruned: true}
	}
	return Candidate{T1: t1, Cost: cost, Valid: true}
}

// evalAnalytic scores one candidate through the fused Eq.-(4)/Eq.-(11)
// cost cursor, abandoning it once the partial sum exceeds budget. The
// caller owns the cursor and reuses it across candidates (it carries
// no per-candidate state).
//
//repro:hotpath
func evalAnalytic(t1, budget float64, cur *core.CostCursor) Candidate {
	cost, pruned, err := cur.CostBudget(t1, budget)
	if err != nil || math.IsNaN(cost) || math.IsInf(cost, 1) {
		return Candidate{T1: t1, Cost: math.NaN()}
	}
	if pruned {
		return Candidate{T1: t1, Cost: cost, Pruned: true}
	}
	return Candidate{T1: t1, Cost: cost, Valid: true}
}

// scanGrid runs block over contiguous blocks of an m-point grid, one
// per worker, each returning its best valid candidate. Reducing the
// block winners in worker order with a strict < keeps the winner of a
// linear scan (the first grid index on ties) at any worker count.
func scanGrid(m, workers int, block func(lo, hi int) Candidate) Candidate {
	if workers <= 0 || workers > m {
		workers = parallel.Workers(m)
	}
	wins := make([]Candidate, workers)
	parallel.ForEachBlock(m, workers, func(w, lo, hi int) { wins[w] = block(lo, hi) })
	best := Candidate{Cost: math.Inf(1)}
	for _, c := range wins {
		if c.Valid && c.Cost < best.Cost {
			best = c
		}
	}
	return best
}

// scanAnalytic is the §4.1 scan of the m-point grid t1 = lo +
// k·(hi-lo)/m, k = 1..m, scored through a per-block copy of cur. Each
// candidate is pruned against its block's best so far unless full:
// a candidate is abandoned only once its partial sum strictly exceeds
// the block's incumbent, so every candidate whose exact cost ties or
// beats the eventual minimum is scored exactly and the winner is the
// unpruned one. A non-nil cands records every candidate; a nil cands
// asks for the winner only, and a block then stops at the first point
// from which the cursor reports every later point pruned
// (CostCursor.PrunesFrom): the grid is FP-nondecreasing in k and the
// block's best only falls.
func scanAnalytic(cur core.CostCursor, lo, hi float64, m, workers int, full bool, cands []Candidate) Candidate {
	return scanGrid(m, workers, func(wlo, whi int) Candidate {
		cur := cur
		best := Candidate{Cost: math.Inf(1)}
		for i := wlo; i < whi; i++ {
			t1 := lo + (hi-lo)*float64(i+1)/float64(m)
			budget := best.Cost
			if full {
				budget = math.Inf(1)
			}
			if cands == nil && cur.PrunesFrom(t1, budget) {
				break
			}
			c := evalAnalytic(t1, budget, &cur)
			if cands != nil {
				cands[i] = c
			}
			if c.Valid && c.Cost < best.Cost {
				best = c
			}
		}
		return best
	})
}

// scanWorkload is the Monte-Carlo twin of scanAnalytic over the same
// grid, scoring each candidate against the shared workload through a
// per-block recurrence cursor. A non-nil cands records every candidate
// scored exactly (no budget); a nil cands asks for the winner only, so
// each candidate is pruned against its block's best and a block stops
// at the first point the workload reports every later point pruned
// (Workload.PrunesFrom).
func scanWorkload(m core.CostModel, d dist.Distribution, wl *simulate.Workload, lo, hi float64, gridM, workers int, tailEps float64, cands []Candidate) Candidate {
	return scanGrid(gridM, workers, func(wlo, whi int) Candidate {
		cur := core.NewRecurrenceCursor(m, d, 0, tailEps)
		best := Candidate{Cost: math.Inf(1)}
		budget := math.Inf(1)
		for i := wlo; i < whi; i++ {
			t1 := lo + (hi-lo)*float64(i+1)/float64(gridM)
			cur.Reset(t1)
			if cands == nil {
				budget = best.Cost
				if first, err := cur.First(); err == nil && wl.PrunesFrom(m, first, budget) {
					break
				}
			}
			c := evalWorkload(m, t1, budget, wl, &cur)
			if cands != nil {
				cands[i] = c
			}
			if c.Valid && c.Cost < best.Cost {
				best = c
			}
		}
		return best
	})
}

// polish minimizes the exact cost by golden section between the grid
// neighbours t1 ± step (clipped to [lo, hi]) and scores the result.
// It uses no budget: golden section orders probe values against each
// other, so a pruned lower bound would mis-order the bracket.
func polish(cur *core.CostCursor, t1, step, lo, hi float64) Candidate {
	obj := func(x float64) float64 {
		c := evalAnalytic(x, math.Inf(1), cur)
		if !c.Valid {
			return math.Inf(1)
		}
		return c.Cost
	}
	x := optimize.GoldenSection(obj, math.Max(lo, t1-step), math.Min(hi, t1+step), 1e-10)
	return evalAnalytic(x, math.Inf(1), cur)
}

// Search runs the full grid scan and returns every candidate along
// with the winner. In Monte-Carlo mode the (N, Seed) workload is drawn
// and precomputed once for the whole scan.
func (b BruteForce) Search(m core.CostModel, d dist.Distribution) (SearchResult, error) {
	return b.SearchOn(m, d, nil)
}

// SearchOn is Search scoring Monte-Carlo candidates against a shared
// precomputed Workload — the drivers that evaluate many strategies on
// one distribution build the workload once and pass it to every scan.
// A nil wl in Monte-Carlo mode draws the configured (N, Seed) workload;
// in analytic mode wl is ignored.
func (b BruteForce) SearchOn(m core.CostModel, d dist.Distribution, wl *simulate.Workload) (SearchResult, error) {
	return b.search(m, d, wl, true)
}

// search is the §4.1 scan. With record it fills Candidates (Search);
// without, it is the winner-only scan behind Sequence: no candidate
// slab, every candidate pruned against its block's incumbent in both
// modes, and early block stops. Both return the same winner bit for
// bit.
func (b BruteForce) search(m core.CostModel, d dist.Distribution, wl *simulate.Workload, record bool) (SearchResult, error) {
	if err := m.Validate(); err != nil {
		return SearchResult{}, err
	}
	gridM, n, tailEps := b.params()
	lo, _ := d.Support()
	hi := core.BoundFirstReservation(m, d)
	if !(hi > lo) {
		return SearchResult{}, fmt.Errorf("strategy: degenerate search interval [%g, %g]", lo, hi)
	}
	var cands []Candidate
	if record {
		cands = make([]Candidate, gridM)
	}
	// Both modes stream each candidate through one reused per-block
	// cursor: the Monte-Carlo path through the Eq.-(11)
	// RecurrenceCursor against the shared Workload, the analytic path
	// through the fused Eq.-(4)/Eq.-(11) CostCursor.
	var best Candidate
	if b.Mode == EvalMonteCarlo {
		if wl == nil {
			wl = simulate.NewWorkloadFrom(d, n, b.Seed)
		}
		best = scanWorkload(m, d, wl, lo, hi, gridM, b.Workers, tailEps, cands)
	} else {
		best = scanAnalytic(core.NewCostCursor(m, d, tailEps), lo, hi, gridM, b.Workers, b.FullCosts && record, cands)
	}
	if !best.Valid {
		return SearchResult{Candidates: cands}, errors.New("strategy: no valid brute-force candidate")
	}
	// Candidates were scored through cursors, so build the winner's
	// (lazy) sequence now — O(1), no rescore.
	bestSeq := core.SequenceFromFirstTail(m, d, best.T1, tailEps)
	return SearchResult{Best: best, Sequence: bestSeq, Candidates: cands}, nil
}

// Sequence implements Strategy with the winner-only scan a plan
// request takes: no candidate slab, every candidate pruned against its
// worker block's incumbent in both scoring modes, and each block
// stopped at the first grid point from which every later point is
// pruned. It returns Search's winning sequence bit for bit at any
// worker count.
func (b BruteForce) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	res, err := b.search(m, d, nil, false)
	return res.Sequence, err
}

// RefinedBruteForce first scans a coarse grid, then polishes the best
// t1 by golden-section minimization of the analytic cost between its
// grid neighbours. It implements the "more efficient algorithms may
// exist to search for the best t1" extension hypothesized in §5.2.
type RefinedBruteForce struct {
	// Coarse is the underlying grid search; its Mode should be
	// EvalAnalytic for a meaningful refinement (golden section needs a
	// noise-free objective). Zero-value fields default as in BruteForce.
	Coarse BruteForce
}

// Name implements Strategy.
func (RefinedBruteForce) Name() string { return "Refined-BF" }

// search is the coarse scan (recording candidates or winner-only, as
// in BruteForce.search) followed by the polish.
func (r RefinedBruteForce) search(m core.CostModel, d dist.Distribution, record bool) (SearchResult, error) {
	coarse := r.Coarse
	coarse.Mode = EvalAnalytic
	if coarse.M == 0 {
		coarse.M = 500
	}
	res, err := coarse.search(m, d, nil, record)
	if err != nil {
		return res, err
	}
	lo, _ := d.Support()
	hi := core.BoundFirstReservation(m, d)
	_, _, tailEps := coarse.params()
	cur := core.NewCostCursor(m, d, tailEps)
	c := polish(&cur, res.Best.T1, (hi-lo)/float64(coarse.M), lo, hi)
	if !c.Valid || c.Cost > res.Best.Cost {
		return res, nil // keep the coarse winner
	}
	seq := core.SequenceFromFirstTail(m, d, c.T1, tailEps)
	return SearchResult{Best: c, Sequence: seq, Candidates: res.Candidates}, nil
}

// Sequence implements Strategy: the winner-only coarse scan (see
// BruteForce.Sequence) and the polish, returning Search's sequence.
func (r RefinedBruteForce) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	res, err := r.search(m, d, false)
	return res.Sequence, err
}
