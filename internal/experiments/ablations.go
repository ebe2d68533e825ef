package experiments

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/discretize"
	"repro/internal/dist"
	"repro/internal/dp"
	"repro/internal/resources"
	"repro/internal/strategy"
	"repro/internal/tablefmt"
)

// This file holds the ablation studies for the design choices DESIGN.md
// calls out, plus the quantitative studies of the two §7 extensions:
//
//   - AblationTailEps — how the tail tolerance at which a recurrence
//     breakdown is forgiven affects the brute-force search (validity
//     fraction and best cost);
//   - AblationScoring — Monte-Carlo vs analytic candidate scoring: the
//     selection bias of min-over-noisy-estimates, measured by re-scoring
//     the MC winner analytically;
//   - AblationCheckpoint — the checkpoint/restart extension: optimal
//     mixed policies vs the pure strategies across snapshot costs;
//   - AblationResources — the variable-resources extension: expected
//     cost vs processor count under turnaround pressure.

// TailEpsRow is one (distribution, tailEps) cell of the tail-tolerance
// ablation.
type TailEpsRow struct {
	Distribution string
	// TailEps values probed (0 = strict rule).
	TailEps []float64
	// ValidFrac is the fraction of grid candidates that stay valid.
	ValidFrac []float64
	// BestCost is the best normalized analytic cost over the grid (NaN
	// when no candidate is valid).
	BestCost []float64
}

// TailEpsValues is the probed tolerance axis.
var TailEpsValues = []float64{0, 1e-6, 1e-4, 1e-3, 1e-2}

// AblationTailEps scans the brute-force grid under several tail
// tolerances for a representative subset of Table-1 distributions.
func AblationTailEps(cfg Config) []TailEpsRow {
	cfg = cfg.withDefaults()
	dists := []dist.Distribution{
		dist.MustExponential(1), dist.MustLogNormal(3, 0.5), dist.MustGamma(2, 2),
	}
	m := core.ReservationOnly
	rows := make([]TailEpsRow, 0, len(dists))
	for _, d := range dists {
		row := TailEpsRow{Distribution: d.Name(), TailEps: TailEpsValues}
		lo, _ := d.Support()
		hi := core.BoundFirstReservation(m, d)
		for _, eps := range TailEpsValues {
			valid := 0
			best := math.Inf(1)
			for i := 1; i <= cfg.M; i++ {
				t1 := lo + (hi-lo)*float64(i)/float64(cfg.M)
				s := core.SequenceFromFirstTail(m, d, t1, eps)
				e, err := core.ExpectedCost(m, d, s)
				if err != nil || math.IsInf(e, 1) {
					continue
				}
				valid++
				if e < best {
					best = e
				}
			}
			row.ValidFrac = append(row.ValidFrac, float64(valid)/float64(cfg.M))
			if math.IsInf(best, 1) {
				row.BestCost = append(row.BestCost, math.NaN())
			} else {
				row.BestCost = append(row.BestCost, best/m.OmniscientCost(d))
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderAblationTailEps formats the tail-tolerance ablation.
func RenderAblationTailEps(rows []TailEpsRow) *tablefmt.Table {
	header := []string{"Distribution"}
	for _, eps := range TailEpsValues {
		header = append(header, fmt.Sprintf("valid@%.0e", eps), fmt.Sprintf("cost@%.0e", eps))
	}
	t := tablefmt.New("Ablation: tail tolerance for recurrence breakdowns (brute-force grid)", header...)
	for _, r := range rows {
		cells := []string{r.Distribution}
		for i := range r.TailEps {
			cells = append(cells, fmt.Sprintf("%.3f", r.ValidFrac[i]), tablefmt.Num(r.BestCost[i]))
		}
		t.AddRow(cells...)
	}
	return t
}

// ScoringRow is one distribution's row of the scoring-protocol
// ablation.
type ScoringRow struct {
	Distribution string
	// AnalyticBest is the exact Eq.-(4) optimum over the grid.
	AnalyticBest float64
	// MCBest is the Monte-Carlo winner's reported (noisy, biased-low)
	// cost.
	MCBest float64
	// MCRescored is the MC winner's exact cost — the gap to MCBest is
	// the min-over-noise selection bias of the paper's protocol.
	MCRescored float64
}

// AblationScoring quantifies the Monte-Carlo selection bias on every
// Table-1 distribution.
func AblationScoring(cfg Config) ([]ScoringRow, error) {
	cfg = cfg.withDefaults()
	m := core.ReservationOnly
	names := dist.Table1Names()
	rows := make([]ScoringRow, 0, len(names))
	for i, d := range dist.Table1() {
		an, err := (strategy.BruteForce{M: cfg.M, Mode: strategy.EvalAnalytic}).Search(m, d, nil)
		if err != nil {
			return nil, err
		}
		bf := strategy.BruteForce{M: cfg.M, N: cfg.N, Mode: strategy.EvalMonteCarlo, Seed: cfg.Seed + uint64(i)}
		mc, err := bf.Search(m, d, nil)
		if err != nil {
			return nil, err
		}
		rescored, _ := bf.EvaluateT1(m, d, mc.Best.T1, nil) // nil workload → analytic
		o := m.OmniscientCost(d)
		rows = append(rows, ScoringRow{
			Distribution: names[i],
			AnalyticBest: an.Best.Cost / o,
			MCBest:       mc.Best.Cost / o,
			MCRescored:   rescored.Cost / o,
		})
	}
	return rows, nil
}

// RenderAblationScoring formats the scoring ablation.
func RenderAblationScoring(rows []ScoringRow) *tablefmt.Table {
	t := tablefmt.New(
		"Ablation: Monte-Carlo vs analytic brute-force scoring (normalized costs)",
		"Distribution", "analytic best", "MC reported", "MC rescored", "selection bias")
	for _, r := range rows {
		t.AddRow(r.Distribution,
			tablefmt.Num(r.AnalyticBest), tablefmt.Num(r.MCBest), tablefmt.Num(r.MCRescored),
			tablefmt.Num(r.MCRescored-r.MCBest))
	}
	return t
}

// CheckpointRow is one snapshot-cost point of the checkpointing study.
type CheckpointRow struct {
	// C is the checkpoint (and restore) cost.
	C float64
	// NoCkpt, AllCkpt, Mixed are the expected costs of the pure and
	// optimal policies.
	NoCkpt, AllCkpt, Mixed float64
	// Snapshots is the number of checkpointing steps in the mixed
	// policy.
	Snapshots int
}

// CheckpointCosts is the probed snapshot-cost axis (relative to a
// unit-scale job law).
var CheckpointCosts = []float64{0, 0.05, 0.1, 0.25, 0.5, 1}

// AblationCheckpoint studies the checkpoint extension on a heavy-tailed
// law (Weibull κ=0.5, where reservation-only loses the most work).
func AblationCheckpoint(cfg Config) ([]CheckpointRow, error) {
	cfg = cfg.withDefaults()
	n := cfg.DiscN
	if n > 150 {
		n = 150 // the mixed DP is O(n³)
	}
	dd, err := discretize.Discretize(dist.MustWeibull(1, 0.5), n, 1e-6, discretize.EqualProbability)
	if err != nil {
		return nil, err
	}
	m := core.ReservationOnly
	base, err := dp.Solve(dd, m)
	if err != nil {
		return nil, err
	}
	rows := make([]CheckpointRow, 0, len(CheckpointCosts))
	for _, c := range CheckpointCosts {
		p := checkpoint.Params{C: c, R: c}
		all, err := checkpoint.SolveAllCheckpoint(dd, m, p)
		if err != nil {
			return nil, err
		}
		mix, err := checkpoint.Solve(dd, m, p)
		if err != nil {
			return nil, err
		}
		snaps := 0
		for _, st := range mix.Steps {
			if st.Checkpoint {
				snaps++
			}
		}
		rows = append(rows, CheckpointRow{
			C: c, NoCkpt: base.ExpectedCost, AllCkpt: all.ExpectedCost,
			Mixed: mix.ExpectedCost, Snapshots: snaps,
		})
	}
	return rows, nil
}

// RenderAblationCheckpoint formats the checkpointing study.
func RenderAblationCheckpoint(rows []CheckpointRow) *tablefmt.Table {
	t := tablefmt.New(
		"Extension: checkpoint/restart on Weibull(1, 0.5), ReservationOnly (expected costs)",
		"C=R", "no-ckpt (Thm 5)", "all-ckpt", "mixed optimal", "saving", "snapshots")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%g", r.C),
			tablefmt.Num(r.NoCkpt), tablefmt.Num(r.AllCkpt), tablefmt.Num(r.Mixed),
			fmt.Sprintf("%.1f%%", 100*(1-r.Mixed/r.NoCkpt)),
			fmt.Sprintf("%d", r.Snapshots))
	}
	return t
}

// ResourceRow is one processor count of the variable-resources study.
type ResourceRow struct {
	Procs        int
	ExpectedCost float64
	Best         bool
}

// AblationResources studies the elastic-request extension: LogNormal
// work under Amdahl(5%) with turnaround pressure.
func AblationResources(cfg Config) ([]ResourceRow, error) {
	cfg = cfg.withDefaults()
	work := dist.MustLogNormal(1, 0.4)
	su, err := resources.NewAmdahl(0.05)
	if err != nil {
		return nil, err
	}
	cost := resources.JobCost{NodeAlpha: 1, TimeWeight: 20}
	procs := []int{1, 2, 4, 8, 16, 32, 64, 128}
	gridM := cfg.M
	if gridM > 1000 {
		gridM = 1000
	}
	best, all, err := resources.Optimize(work, cost, su, procs,
		strategy.BruteForce{M: gridM, Mode: strategy.EvalAnalytic})
	if err != nil {
		return nil, err
	}
	rows := make([]ResourceRow, 0, len(all))
	for _, ch := range all {
		rows = append(rows, ResourceRow{Procs: ch.Procs, ExpectedCost: ch.ExpectedCost, Best: ch.Procs == best.Procs})
	}
	return rows, nil
}

// RenderAblationResources formats the variable-resources study.
func RenderAblationResources(rows []ResourceRow) *tablefmt.Table {
	t := tablefmt.New(
		"Extension: elastic requests — LogNormal(1, 0.4) work, Amdahl(s=0.05), $1/node-hour + $20/hour reserved",
		"procs", "expected cost", "best")
	for _, r := range rows {
		mark := ""
		if r.Best {
			mark = "*"
		}
		t.AddRow(fmt.Sprintf("%d", r.Procs), tablefmt.Num(r.ExpectedCost), mark)
	}
	return t
}
