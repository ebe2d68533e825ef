package experiments

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/online"
	"repro/internal/tablefmt"
	"repro/internal/trace"
)

// OnlineRow is one estimator's learning curve in the online-learning
// study.
type OnlineRow struct {
	Estimator string
	// BlockRatio is the learner/oracle cost ratio per block of jobs.
	BlockRatio []float64
	// Regret is the total cumulative regret.
	Regret float64
	// TailRatio is the converged efficiency.
	TailRatio float64
}

// OnlineBlocks is the number of learning-curve blocks reported.
const OnlineBlocks = 5

// StudyOnline runs the online-learning extension: both estimators
// against a LogNormal truth from a badly mis-specified exponential
// prior, reporting the per-block cost ratio versus the clairvoyant
// planner.
func StudyOnline(cfg Config) ([]OnlineRow, error) {
	cfg = cfg.withDefaults()
	truth := dist.MustLogNormal(1, 0.5)
	prior := dist.MustExponential(0.05)
	const jobs = 500
	rows := make([]OnlineRow, 0, 2)
	for _, est := range []online.Estimator{online.Empirical, online.SmoothedLogNormal} {
		l, err := online.NewLearner(core.ReservationOnly, prior, online.Config{Estimator: est, DiscN: 150})
		if err != nil {
			return nil, err
		}
		ev, err := online.Evaluate(l, truth, jobs, cfg.Seed)
		if err != nil {
			return nil, err
		}
		row := OnlineRow{Estimator: est.String(), Regret: ev.Regret, TailRatio: ev.TailRatio}
		per := jobs / OnlineBlocks
		for b := 0; b < OnlineBlocks; b++ {
			var lc, oc float64
			for _, r := range ev.Runs[b*per : (b+1)*per] {
				lc += r.Cost
				oc += r.OracleCost
			}
			row.BlockRatio = append(row.BlockRatio, lc/oc)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderStudyOnline formats the online-learning study.
func RenderStudyOnline(rows []OnlineRow) *tablefmt.Table {
	header := []string{"Estimator"}
	for b := 0; b < OnlineBlocks; b++ {
		header = append(header, fmt.Sprintf("block %d", b+1))
	}
	header = append(header, "regret", "tail ratio")
	t := tablefmt.New(
		"Extension: online learning — LogNormal(1, 0.5) truth, Exponential(0.05) prior, cost ratio vs clairvoyant per 100-job block",
		header...)
	for _, r := range rows {
		cells := []string{r.Estimator}
		for _, v := range r.BlockRatio {
			cells = append(cells, tablefmt.Num(v))
		}
		cells = append(cells, tablefmt.Num(r.Regret), fmt.Sprintf("%.3f", r.TailRatio))
		t.AddRow(cells...)
	}
	return t
}

// QueueStudy is the outcome of the scheduler-derived Fig.-2 study.
type QueueStudy struct {
	// Derived is the affine law emerging from the EASY-backfilling
	// simulation.
	Derived trace.WaitTimeModel
	// Synthetic is the law re-fitted from the synthetic log.
	Synthetic trace.WaitTimeModel
	// Stats summarizes the simulation run.
	Stats cluster.Stats
	// Profile is the simulated wait-vs-requested curve.
	Profile []trace.WaitGroup
}

// StudyQueueDerivedWaits derives the Fig.-2 wait-time law from a
// simulated cluster at ~90% load and compares it to the synthetic-log
// fit.
func StudyQueueDerivedWaits(cfg Config) (QueueStudy, error) {
	cfg = cfg.withDefaults()
	const nodes = 16
	const reqMin, reqMax, useFrac = 600.0, 72000.0, 0.7
	maxJobNodes := nodes * 3 / 4
	meanReq := (reqMax - reqMin) / math.Log(reqMax/reqMin)
	meanRun := meanReq * (useFrac + 1) / 2
	meanNodes := float64(1+maxJobNodes) / 2
	wl := cluster.Fig2Workload{
		Jobs: 4000, MaxJobNodes: maxJobNodes,
		ArrivalRate:  0.9 * float64(nodes) / (meanRun * meanNodes),
		RequestedMin: reqMin, RequestedMax: reqMax, UseFraction: useFrac,
		Seed: cfg.Seed,
	}
	derived, prof, stats, err := cluster.DeriveWaitTimeModel(nodes, wl, 20)
	if err != nil {
		return QueueStudy{}, err
	}
	log, err := trace.GenerateWaitTimeLog(trace.Intrepid409, 20, reqMin, reqMax, 0.05, cfg.Seed)
	if err != nil {
		return QueueStudy{}, err
	}
	synth, err := trace.FitWaitTimeModel(log)
	if err != nil {
		return QueueStudy{}, err
	}
	return QueueStudy{Derived: derived, Synthetic: synth, Stats: stats, Profile: prof}, nil
}

// RenderQueueStudy formats the scheduler-derivation study.
func RenderQueueStudy(q QueueStudy) *tablefmt.Table {
	t := tablefmt.New(
		fmt.Sprintf("Substrate: Fig.-2 wait-time law — derived from an EASY-backfilling simulation (util %.1f%%, %d backfilled) vs synthetic-log fit",
			100*q.Stats.Utilization, q.Stats.Backfilled),
		"source", "slope α", "intercept γ (s)")
	t.AddRow("scheduler simulation", fmt.Sprintf("%.4f", q.Derived.Alpha), fmt.Sprintf("%.0f", q.Derived.Gamma))
	t.AddRow("synthetic log fit", fmt.Sprintf("%.4f", q.Synthetic.Alpha), fmt.Sprintf("%.0f", q.Synthetic.Gamma))
	t.AddRow("published (Intrepid)", fmt.Sprintf("%.4f", trace.Intrepid409.Alpha), fmt.Sprintf("%.0f", trace.Intrepid409.Gamma))
	return t
}
