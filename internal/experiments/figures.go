package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/optimize"
	"repro/internal/parallel"
	"repro/internal/platform"
	"repro/internal/strategy"
	"repro/internal/tablefmt"
	"repro/internal/trace"
)

// Fig3Series is one distribution's curve in Fig. 3: the normalized
// expected cost of the Eq.-(11) sequence as a function of the first
// reservation t1, with invalid candidates (non-increasing recurrences)
// carrying NaN — the gaps visible in the paper's plots.
type Fig3Series struct {
	Distribution string
	T1           []float64
	Cost         []float64
	// BestT1 is the valid minimizer of the series.
	BestT1 float64
}

// Fig3 sweeps t1 over the brute-force search interval for every
// Table-1 distribution.
func Fig3(cfg Config) ([]Fig3Series, error) {
	cfg = cfg.withDefaults()
	dists := dist.Table1()
	names := dist.Table1Names()
	m := core.ReservationOnly

	series := make([]Fig3Series, len(dists))
	parallel.ForEach(len(dists), cfg.Workers, func(i int) {
		d := dists[i]
		bf := strategy.BruteForce{M: cfg.M, N: cfg.N, Mode: cfg.evalMode(), Seed: cfg.Seed + uint64(i), Workers: 1}
		// A law without a search interval plots an empty series.
		curve, _ := bf.Curve(m, d, workloadFor(d, cfg, uint64(i)))
		s := Fig3Series{Distribution: names[i], BestT1: math.NaN()}
		o := m.OmniscientCost(d)
		best := math.Inf(1)
		for _, c := range curve {
			s.T1 = append(s.T1, c.T1)
			if !c.Valid {
				s.Cost = append(s.Cost, math.NaN())
				continue
			}
			s.Cost = append(s.Cost, c.Cost/o)
			if c.Cost < best {
				best, s.BestT1 = c.Cost, c.T1
			}
		}
		series[i] = s
	})
	return series, nil
}

// RenderFig3 formats one Fig.-3 series as a CSV-ready table of
// (t1, normalized cost) points.
func RenderFig3(s Fig3Series) *tablefmt.Table {
	t := tablefmt.New(
		fmt.Sprintf("Fig. 3 (%s): normalized cost vs first reservation t1 (best t1 = %s)",
			s.Distribution, tablefmt.Num(s.BestT1)),
		"t1", "normalized_cost")
	for i := range s.T1 {
		t.AddRow(fmt.Sprintf("%.6g", s.T1[i]), tablefmt.Num(s.Cost[i]))
	}
	return t
}

// Fig4Point is one (scale factor, heuristic) cell of Fig. 4.
type Fig4Row struct {
	// Factor scales the base mean and standard deviation.
	Factor float64
	// MeanHours and SdHours are the scaled LogNormal moments.
	MeanHours, SdHours float64
	// Costs are normalized expected costs in HeuristicNames order.
	Costs []float64
}

// Fig4BaseMeanHours and Fig4BaseSdHours are the §5.3 VBMQA fit
// (1253.37 s, 258.261 s) in hours.
const (
	Fig4BaseMeanHours = 1253.37 / platform.SecondsPerHour
	Fig4BaseSdHours   = 258.261 / platform.SecondsPerHour
)

// Fig4Factors is the paper's robustness axis: the mean and standard
// deviation scaled by up to 10×.
var Fig4Factors = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

// Fig4 evaluates all heuristics in the NEUROHPC scenario (α=0.95, β=1,
// γ=1.05 h) over the scaled trace distributions.
func Fig4(cfg Config) ([]Fig4Row, error) {
	cfg = cfg.withDefaults()
	m := platform.NeuroHPC()
	rows := make([]Fig4Row, len(Fig4Factors))
	errs := make([]error, len(Fig4Factors))
	parallel.ForEach(len(Fig4Factors), cfg.Workers, func(i int) {
		f := Fig4Factors[i]
		mean := Fig4BaseMeanHours * f
		sd := Fig4BaseSdHours * f
		d, err := dist.LogNormalFromMoments(mean, sd)
		if err != nil {
			errs[i] = err
			return
		}
		row := Fig4Row{Factor: f, MeanHours: mean, SdHours: sd, Costs: make([]float64, len(HeuristicNames))}
		// The brute-force seed offset matches the heuristic sample
		// offset, so one workload serves the scan and all heuristics.
		wl := workloadFor(d, cfg, uint64(i))

		bf := strategy.BruteForce{M: cfg.M, N: cfg.N, Mode: cfg.evalMode(), Seed: cfg.Seed + uint64(i), Workers: 1}
		res, err := bf.Search(m, d, wl)
		if err != nil {
			row.Costs[0] = math.NaN()
		} else {
			row.Costs[0] = res.Best.Cost / m.OmniscientCost(d)
		}
		for j, st := range cfg.heuristics() {
			s, err := st.Sequence(m, d)
			if err != nil {
				row.Costs[j+1] = math.NaN()
				continue
			}
			row.Costs[j+1] = cfg.scoreSequence(m, d, s, wl)
		}
		rows[i] = row
	})
	for _, err := range errs {
		if err != nil {
			return rows, err
		}
	}
	return rows, nil
}

// Fig4FromTrace runs the full §5.3 pipeline from raw (synthetic)
// traces: generate the run trace, fit the LogNormal, generate and fit
// the wait-time log, then evaluate as Fig4 does at factor 1.
func Fig4FromTrace(cfg Config, app trace.Application, runs int) (Fig4Row, core.CostModel, error) {
	cfg = cfg.withDefaults()
	samples, err := trace.GenerateRunTrace(app, runs, 0.01, cfg.Seed)
	if err != nil {
		return Fig4Row{}, core.CostModel{}, err
	}
	fit, err := dist.FitLogNormal(samples)
	if err != nil {
		return Fig4Row{}, core.CostModel{}, err
	}
	// Convert from seconds to hours.
	d, err := dist.NewLogNormal(fit.Mu()-math.Log(platform.SecondsPerHour), fit.Sigma())
	if err != nil {
		return Fig4Row{}, core.CostModel{}, err
	}
	wlog, err := trace.GenerateWaitTimeLog(trace.Intrepid409, 20, 600, 72000, 0.05, cfg.Seed+1)
	if err != nil {
		return Fig4Row{}, core.CostModel{}, err
	}
	wfit, err := trace.FitWaitTimeModel(wlog)
	if err != nil {
		return Fig4Row{}, core.CostModel{}, err
	}
	m := platform.NeuroHPCFromWaitModel(wfit)

	row := Fig4Row{Factor: 1, MeanHours: d.Mean(), SdHours: dist.StdDev(d), Costs: make([]float64, len(HeuristicNames))}
	mc := workloadFor(d, cfg, 99)
	bf := strategy.BruteForce{M: cfg.M, N: cfg.N, Mode: cfg.evalMode(), Seed: cfg.Seed, Workers: cfg.Workers}
	res, err := bf.Search(m, d, nil)
	if err != nil {
		row.Costs[0] = math.NaN()
	} else {
		row.Costs[0] = res.Best.Cost / m.OmniscientCost(d)
	}
	for j, st := range cfg.heuristics() {
		s, err := st.Sequence(m, d)
		if err != nil {
			row.Costs[j+1] = math.NaN()
			continue
		}
		row.Costs[j+1] = cfg.scoreSequence(m, d, s, mc)
	}
	return row, m, nil
}

// RenderFig4 formats Fig.-4 rows.
func RenderFig4(rows []Fig4Row) *tablefmt.Table {
	t := tablefmt.New(
		"Fig. 4: Normalized expected costs in the NeuroHPC scenario (LogNormal, α=0.95, β=1, γ=1.05h)",
		append([]string{"Factor", "Mean(h)", "Sd(h)"}, HeuristicNames...)...)
	for _, r := range rows {
		cells := []string{
			fmt.Sprintf("%g", r.Factor),
			fmt.Sprintf("%.3f", r.MeanHours),
			fmt.Sprintf("%.3f", r.SdHours),
		}
		for _, c := range r.Costs {
			cells = append(cells, tablefmt.Num(c))
		}
		t.AddRow(cells...)
	}
	return t
}

// Exp1Result summarizes the §3.5 study of Exp(1) under
// RESERVATIONONLY.
type Exp1Result struct {
	// S1 is the optimal first reservation found (paper: ≈0.74219).
	S1 float64
	// E1 is the corresponding expected cost (the universal constant of
	// Proposition 2; the cost for Exp(λ) is E1/λ).
	E1 float64
	// Sequence is the optimal sequence prefix s_1, s_2, ... (s_2 = e^{s_1}).
	Sequence []float64
}

// Exp1 locates s1 by a fine analytic grid search followed by
// golden-section refinement.
func Exp1(cfg Config) (Exp1Result, error) {
	cfg = cfg.withDefaults()
	d := dist.MustExponential(1)
	m := core.ReservationOnly
	obj := func(t1 float64) float64 {
		s := core.SequenceFromFirstTail(m, d, t1, core.DefaultTailEps)
		e, err := core.ExpectedCost(m, d, s)
		if err != nil || math.IsInf(e, 1) {
			return math.Inf(1)
		}
		return e
	}
	t1, _ := optimize.MinimizeGrid(obj, 0.01, 2, cfg.M)
	t1 = optimize.GoldenSection(obj, math.Max(0.01, t1-0.01), t1+0.01, 1e-9)
	seq, err := core.SequenceFromFirstTail(m, d, t1, core.DefaultTailEps).Prefix(6)
	if err != nil {
		return Exp1Result{}, err
	}
	return Exp1Result{S1: t1, E1: obj(t1), Sequence: seq}, nil
}

// Table1Properties renders the Table-1/Table-5 summary: each
// distribution with its support, mean, standard deviation, median and
// the Theorem-2 bounds A1 and A2 under RESERVATIONONLY.
func Table1Properties() *tablefmt.Table {
	t := tablefmt.New(
		"Table 1/5: Distribution instantiations, closed-form properties, and Theorem-2 bounds (ReservationOnly)",
		"Distribution", "Support", "Mean", "StdDev", "Median", "A1", "A2")
	names := dist.Table1Names()
	for i, d := range dist.Table1() {
		lo, hi := d.Support()
		sup := fmt.Sprintf("[%g, %g]", lo, hi)
		if math.IsInf(hi, 1) {
			sup = fmt.Sprintf("[%g, ∞)", lo)
		}
		t.AddRow(names[i], sup,
			tablefmt.Num(d.Mean()), tablefmt.Num(dist.StdDev(d)), tablefmt.Num(dist.Median(d)),
			tablefmt.Num(core.BoundFirstReservation(core.ReservationOnly, d)),
			tablefmt.Num(core.BoundExpectedCost(core.ReservationOnly, d)))
	}
	return t
}
