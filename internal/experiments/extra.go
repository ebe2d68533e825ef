package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/dist"
	"repro/internal/dp"
	"repro/internal/strategy"
	"repro/internal/tablefmt"
)

// BimodalRow is one separation level of the bimodal study.
type BimodalRow struct {
	// Separation is the distance between the two modes in units of the
	// small mode's scale (μ2 - μ1 in log space).
	Separation float64
	// Costs are normalized expected costs in HeuristicNames order.
	Costs []float64
}

// BimodalSeparations is the swept distance between the two LogNormal
// modes (log-space).
var BimodalSeparations = []float64{0.5, 1, 1.5, 2, 2.5, 3}

// StudyBimodal evaluates all heuristics on two-mode mixtures — a job
// population the paper's single-mode evaluation never probes, yet a
// common reality (small vs large inputs). As the modes separate, the
// moment-based heuristics (whose first reservation is the overall mean,
// between the modes) degrade, while the DP-based strategies track the
// modal structure.
func StudyBimodal(cfg Config) ([]BimodalRow, error) {
	cfg = cfg.withDefaults()
	m := core.ReservationOnly
	rows := make([]BimodalRow, 0, len(BimodalSeparations))
	for i, sep := range BimodalSeparations {
		mix, err := dist.NewMixture(
			[]dist.Distribution{
				dist.MustLogNormal(0, 0.25),
				dist.MustLogNormal(sep, 0.25),
			},
			[]float64{0.6, 0.4})
		if err != nil {
			return nil, err
		}
		row := BimodalRow{Separation: sep, Costs: make([]float64, len(HeuristicNames))}
		gridM := cfg.M
		if gridM > 1500 {
			gridM = 1500
		}
		bf := strategy.BruteForce{M: gridM, Mode: strategy.EvalAnalytic, Seed: cfg.Seed + uint64(i)}
		res, err := bf.Search(m, mix, nil)
		if err != nil {
			row.Costs[0] = math.NaN()
		} else {
			row.Costs[0] = res.Best.Cost / m.OmniscientCost(mix)
		}
		for j, st := range cfg.heuristics() {
			s, err := st.Sequence(m, mix)
			if err != nil {
				row.Costs[j+1] = math.NaN()
				continue
			}
			e, err := core.ExpectedCost(m, mix, s)
			if err != nil || math.IsInf(e, 0) {
				row.Costs[j+1] = math.NaN()
				continue
			}
			row.Costs[j+1] = e / m.OmniscientCost(mix)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderStudyBimodal formats the bimodal study.
func RenderStudyBimodal(rows []BimodalRow) *tablefmt.Table {
	t := tablefmt.New(
		"Study: bimodal job populations — 0.6·LogNormal(0, 0.25) + 0.4·LogNormal(Δ, 0.25), ReservationOnly",
		append([]string{"Δ (log)"}, HeuristicNames...)...)
	for _, r := range rows {
		cells := []string{fmt.Sprintf("%g", r.Separation)}
		for _, c := range r.Costs {
			cells = append(cells, tablefmt.Num(c))
		}
		t.AddRow(cells...)
	}
	return t
}

// OverheadRow is one per-attempt-overhead level of the γ-sensitivity
// study.
type OverheadRow struct {
	// GammaOverMean is γ expressed as a fraction of E[X].
	GammaOverMean float64
	// BFCost is the brute-force normalized expected cost.
	BFCost float64
	// BFAttempts is the expected number of reservations of the
	// brute-force plan.
	BFAttempts float64
	// FirstOverMean is the plan's first reservation over E[X].
	FirstOverMean float64
}

// OverheadLevels is the swept γ/E[X] axis.
var OverheadLevels = []float64{0, 0.1, 0.25, 0.5, 1, 2}

// StudyOverheadSensitivity sweeps the per-attempt overhead γ in the
// general model (α = β = 1, the paper's HPC-style costs) on the
// LogNormal workload: as retries get more expensive, the optimal
// strategy books longer first reservations and the expected attempt
// count falls toward 1 — quantifying the trade-off the paper's
// fixed-γ NeuroHPC scenario only samples at one point.
func StudyOverheadSensitivity(cfg Config) ([]OverheadRow, error) {
	cfg = cfg.withDefaults()
	d := dist.MustLogNormal(1, 0.5)
	mean := d.Mean()
	gridM := cfg.M
	if gridM > 1500 {
		gridM = 1500
	}
	rows := make([]OverheadRow, 0, len(OverheadLevels))
	for _, g := range OverheadLevels {
		m := core.CostModel{Alpha: 1, Beta: 1, Gamma: g * mean}
		bf := strategy.BruteForce{M: gridM, Mode: strategy.EvalAnalytic}
		res, err := bf.Search(m, d, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: overhead γ=%g: %w", g, err)
		}
		st, err := core.Stats(m, d, res.Sequence.Clone())
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{
			GammaOverMean: g,
			BFCost:        res.Best.Cost / m.OmniscientCost(d),
			BFAttempts:    st.ExpectedAttempts,
			FirstOverMean: res.Best.T1 / mean,
		})
	}
	return rows, nil
}

// RenderStudyOverhead formats the γ-sensitivity study.
func RenderStudyOverhead(rows []OverheadRow) *tablefmt.Table {
	t := tablefmt.New(
		"Study: per-attempt overhead sensitivity — LogNormal(1, 0.5), α=β=1, brute-force plan",
		"γ/E[X]", "normalized cost", "E[attempts]", "t1/E[X]")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%g", r.GammaOverMean),
			tablefmt.Num(r.BFCost),
			fmt.Sprintf("%.3f", r.BFAttempts),
			fmt.Sprintf("%.3f", r.FirstOverMean))
	}
	return t
}

// AttemptBudgetRow is one resubmission-cap level of the attempt-budget
// study.
type AttemptBudgetRow struct {
	// MaxAttempts is the cap K.
	MaxAttempts int
	// Cost is the optimal normalized expected cost under the cap.
	Cost float64
	// PlanLen is the number of reservations the optimal plan uses.
	PlanLen int
}

// StudyAttemptBudget quantifies what resubmission caps cost: the
// optimal constrained plan (dp.SolveMaxAttempts) on the LogNormal
// workload for K = 1..8, versus the unconstrained Theorem-5 optimum.
func StudyAttemptBudget(cfg Config) ([]AttemptBudgetRow, error) {
	cfg = cfg.withDefaults()
	d := dist.MustLogNormal(1, 0.5)
	n := cfg.DiscN
	if n > 500 {
		n = 500
	}
	dd, err := discretize.Discretize(d, n, cfg.Epsilon, discretize.EqualProbability)
	if err != nil {
		return nil, err
	}
	m := core.ReservationOnly
	o := m.OmniscientCost(d)
	rows := make([]AttemptBudgetRow, 0, 8)
	for k := 1; k <= 8; k++ {
		res, err := dp.SolveMaxAttempts(dd, m, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: attempt budget K=%d: %w", k, err)
		}
		rows = append(rows, AttemptBudgetRow{MaxAttempts: k, Cost: res.ExpectedCost / o, PlanLen: len(res.Sequence)})
	}
	return rows, nil
}

// RenderStudyAttemptBudget formats the attempt-budget study.
func RenderStudyAttemptBudget(rows []AttemptBudgetRow) *tablefmt.Table {
	t := tablefmt.New(
		"Study: resubmission caps — optimal cost under at most K attempts (LogNormal(1, 0.5), ReservationOnly)",
		"K", "normalized cost", "plan length")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.MaxAttempts), tablefmt.Num(r.Cost), fmt.Sprintf("%d", r.PlanLen))
	}
	return t
}
