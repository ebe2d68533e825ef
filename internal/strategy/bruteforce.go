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
	// FullCosts disables the analytic budget prune so every grid
	// point's exact cost is recorded in Candidates — required by
	// Fig.-3-style analyses that plot the whole cost curve. The default
	// (false) abandons a candidate as soon as its Eq.-(4) partial sum
	// exceeds the worker block's best cost, which never changes the
	// winner (see core.CostCursor.CostBudget) but leaves pruned
	// Candidates entries holding only a lower bound. Ignored under
	// Monte-Carlo scoring.
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
	// Pruned marks a candidate abandoned by the analytic early abort:
	// Cost then holds only the partial Eq.-(4) sum accumulated before
	// the abort — an admissible lower bound on the true cost, already
	// above the block's best — and Valid is false because the unscanned
	// tail of the recurrence was never checked. Which candidates get
	// pruned (and their partial values) depends on scan order and
	// worker count; only the winner is canonical. Set FullCosts to
	// record every exact cost instead.
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
	m, n, tailEps = b.M, b.N, b.TailEps
	if m <= 0 {
		m = 5000
	}
	if n <= 0 {
		n = simulate.DefaultSamples
	}
	if tailEps == 0 {
		tailEps = core.DefaultTailEps
	} else if tailEps < 0 {
		tailEps = 0
	}
	return m, n, tailEps
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
	c := evalWorkload(m, t1, wl, &cur)
	if !c.Valid {
		return c, nil
	}
	return c, core.SequenceFromFirstTail(m, d, t1, tailEps)
}

// evalWorkload scores one candidate through the allocation-free
// recurrence cursor: no Sequence is built, no clone taken. The caller
// owns the cursor (already positioned at t1) and may reuse it across
// candidates via Reset.
//
//repro:hotpath
func evalWorkload(m core.CostModel, t1 float64, wl *simulate.Workload, cur *core.RecurrenceCursor) Candidate {
	cost, err := wl.Cost(m, cur)
	if err != nil || math.IsNaN(cost) || math.IsInf(cost, 1) {
		return Candidate{T1: t1, Cost: math.NaN()}
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
	if err := m.Validate(); err != nil {
		return SearchResult{}, err
	}
	gridM, n, tailEps := b.params()
	lo, _ := d.Support()
	hi := core.BoundFirstReservation(m, d)
	if !(hi > lo) {
		return SearchResult{}, fmt.Errorf("strategy: degenerate search interval [%g, %g]", lo, hi)
	}
	if b.Mode == EvalMonteCarlo {
		if wl == nil {
			wl = simulate.NewWorkloadFrom(d, n, b.Seed)
		}
	} else {
		wl = nil
	}

	workers := b.Workers
	if workers <= 0 || workers > gridM {
		workers = parallel.Workers(gridM)
	}
	// Each worker records its block's winner so the best candidate is
	// never evaluated a second time after the scan. Both modes stream
	// each candidate through one reused per-block cursor: the
	// Monte-Carlo path through the Eq.-(11) RecurrenceCursor against
	// the shared Workload, the analytic path through the fused
	// Eq.-(4)/Eq.-(11) CostCursor, pruning against the block's best so
	// far (unless FullCosts asks for every exact cost).
	cands := make([]Candidate, gridM)
	wins := make([]int, workers)
	parallel.ForEachBlock(gridM, workers, func(w, wlo, whi int) {
		bestIdx := -1
		bestCost := math.Inf(1)
		if wl != nil {
			cur := core.NewRecurrenceCursor(m, d, 0, tailEps) // reused across the block
			for i := wlo; i < whi; i++ {
				// Paper's grid: t1 = a + m·(b-a)/M for m = 1..M.
				t1 := lo + (hi-lo)*float64(i+1)/float64(gridM)
				cur.Reset(t1)
				cands[i] = evalWorkload(m, t1, wl, &cur)
				if cands[i].Valid && cands[i].Cost < bestCost {
					bestCost, bestIdx = cands[i].Cost, i
				}
			}
		} else {
			cur := core.NewCostCursor(m, d, tailEps) // reused across the block
			for i := wlo; i < whi; i++ {
				t1 := lo + (hi-lo)*float64(i+1)/float64(gridM)
				budget := bestCost
				if b.FullCosts {
					budget = math.Inf(1)
				}
				cands[i] = evalAnalytic(t1, budget, &cur)
				if cands[i].Valid && cands[i].Cost < bestCost {
					bestCost, bestIdx = cands[i].Cost, i
				}
			}
		}
		wins[w] = bestIdx
	})

	// Blocks are contiguous, so reducing in worker order with a strict
	// < keeps the same winner (first grid index on ties) as a linear
	// scan, independent of the worker count. Pruning cannot disturb
	// this: a candidate is abandoned only once its partial sum strictly
	// exceeds the block's incumbent, so every candidate whose exact
	// cost ties or beats the eventual minimum is scored exactly.
	best := Candidate{Cost: math.Inf(1)}
	for _, idx := range wins {
		if idx < 0 {
			continue
		}
		if c := cands[idx]; c.Cost < best.Cost {
			best = c
		}
	}
	if !best.Valid {
		return SearchResult{Candidates: cands}, errors.New("strategy: no valid brute-force candidate")
	}
	// Candidates were scored through cursors, so build the winner's
	// (lazy) sequence now — O(1), no rescore.
	bestSeq := core.SequenceFromFirstTail(m, d, best.T1, tailEps)
	return SearchResult{Best: best, Sequence: bestSeq, Candidates: cands}, nil
}

// Sequence implements Strategy.
func (b BruteForce) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	res, err := b.Search(m, d)
	if err != nil {
		return nil, err
	}
	return res.Sequence, nil
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

// Search runs the coarse scan and the golden-section polish, returning
// the refined t1 and cost.
func (r RefinedBruteForce) Search(m core.CostModel, d dist.Distribution) (SearchResult, error) {
	coarse := r.Coarse
	coarse.Mode = EvalAnalytic
	if coarse.M == 0 {
		coarse.M = 500
	}
	res, err := coarse.Search(m, d)
	if err != nil {
		return res, err
	}
	lo, _ := d.Support()
	hi := core.BoundFirstReservation(m, d)
	step := (hi - lo) / float64(coarse.M)
	a := math.Max(lo, res.Best.T1-step)
	bb := math.Min(hi, res.Best.T1+step)
	// One cursor serves every golden-section probe; no budget — the
	// polish compares probe values against each other, so a pruned
	// lower bound would mis-order the bracket.
	_, _, tailEps := coarse.params()
	cur := core.NewCostCursor(m, d, tailEps)
	obj := func(t1 float64) float64 {
		c := evalAnalytic(t1, math.Inf(1), &cur)
		if !c.Valid {
			return math.Inf(1)
		}
		return c.Cost
	}
	t1 := optimize.GoldenSection(obj, a, bb, 1e-10)
	c := evalAnalytic(t1, math.Inf(1), &cur)
	if !c.Valid || c.Cost > res.Best.Cost {
		return res, nil // keep the coarse winner
	}
	seq := core.SequenceFromFirstTail(m, d, t1, tailEps)
	return SearchResult{Best: c, Sequence: seq, Candidates: res.Candidates}, nil
}

// Sequence implements Strategy.
func (r RefinedBruteForce) Sequence(m core.CostModel, d dist.Distribution) (*core.Sequence, error) {
	res, err := r.Search(m, d)
	if err != nil {
		return nil, err
	}
	return res.Sequence, nil
}
