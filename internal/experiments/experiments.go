// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5), reproducing:
//
//   - Table 1/5: the nine distribution instantiations and their
//     closed-form properties;
//   - Table 2: normalized expected costs of the seven heuristics under
//     RESERVATIONONLY;
//   - Table 3: the best brute-force t1 versus t1 picked at quantiles of
//     each distribution (with invalid candidates marked "-");
//   - Table 4: the two discretization-based heuristics as a function of
//     the number of discrete samples;
//   - Fig. 3: the normalized cost as a function of t1 over the search
//     interval (one series per distribution, with gaps at invalid
//     candidates);
//   - Fig. 4: the NEUROHPC scenario — all heuristics on the fitted
//     LogNormal trace distribution with the mean and standard deviation
//     scaled up to 10×;
//   - the §3.5 study of the Exp(1) optimal first reservation s1.
//
// Every driver returns structured results; the Render* helpers format
// them in the paper's layout.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/simulate"
	"repro/internal/strategy"
	"repro/internal/tablefmt"
)

// Config sets the evaluation protocol parameters (§5.1 defaults).
type Config struct {
	// M is the brute-force grid size (paper: 5000).
	M int
	// N is the Monte-Carlo sample count (paper: 1000).
	N int
	// DiscN is the discretization sample count (paper: 1000).
	DiscN int
	// Epsilon is the truncation quantile (paper: 1e-7).
	Epsilon float64
	// Seed drives all sampling.
	Seed uint64
	// Analytic switches cost scoring from the paper's Monte-Carlo
	// protocol (Eq. 13) to the deterministic closed form (Eq. 4).
	Analytic bool
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
}

// Default returns the paper's evaluation parameters.
func Default() Config {
	return Config{M: 5000, N: 1000, DiscN: 1000, Epsilon: 1e-7, Seed: 42}
}

func (c Config) withDefaults() Config {
	d := Default()
	if c.M <= 0 {
		c.M = d.M
	}
	if c.N <= 0 {
		c.N = d.N
	}
	if c.DiscN <= 0 {
		c.DiscN = d.DiscN
	}
	if c.Epsilon <= 0 {
		c.Epsilon = d.Epsilon
	}
	return c
}

func (c Config) evalMode() strategy.EvalMode {
	if c.Analytic {
		return strategy.EvalAnalytic
	}
	return strategy.EvalMonteCarlo
}

// HeuristicNames is the paper's column order in Tables 2 and Fig. 4.
var HeuristicNames = []string{
	"Brute-Force", "Mean-by-Mean", "Mean-Stdev", "Mean-Doub.",
	"Med-by-Med", "Equal-time", "Equal-prob.",
}

// scoreSequence evaluates a sequence's normalized expected cost under
// the configured protocol — against the distribution's precomputed
// Monte-Carlo Workload, or the Eq.-(4) closed form when wl is nil or
// the config is analytic. NaN marks an invalid/uncoverable strategy.
// The sequence is consumed in place (no clone): callers pass a freshly
// built sequence that no other goroutine touches.
func (c Config) scoreSequence(m core.CostModel, d dist.Distribution, s *core.Sequence, wl *simulate.Workload) float64 {
	var cost float64
	var err error
	if c.Analytic || wl == nil {
		cost, err = core.ExpectedCost(m, d, s)
	} else {
		cost, err = wl.CostSequence(m, s)
	}
	if err != nil || math.IsNaN(cost) || math.IsInf(cost, 0) {
		return math.NaN()
	}
	return cost / m.OmniscientCost(d)
}

// workloadFor builds the distribution's shared Monte-Carlo workload —
// the same (seed-offset) sample set every driver previously drew with
// simulate.Samples — or nil in analytic mode. Building it once per
// distribution lets the brute-force scan and every heuristic score
// against one precomputed scorer.
func workloadFor(d dist.Distribution, cfg Config, offset uint64) *simulate.Workload {
	if cfg.Analytic {
		return nil
	}
	return simulate.NewWorkloadFrom(d, cfg.N, cfg.Seed+offset)
}

// heuristics returns the six non-brute-force strategies in column
// order (indices 1..6 of HeuristicNames).
func (c Config) heuristics() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.MeanByMean{},
		strategy.MeanStdev{},
		strategy.MeanDoubling{},
		strategy.MedianByMedian{},
		strategy.Discretized{Scheme: 1, N: c.DiscN, Epsilon: c.Epsilon}, // Equal-time
		strategy.Discretized{Scheme: 0, N: c.DiscN, Epsilon: c.Epsilon}, // Equal-probability
	}
}

// Table2Row holds one distribution's row of Table 2: the normalized
// expected cost of each heuristic, in HeuristicNames order. NaN marks a
// failed heuristic.
type Table2Row struct {
	Distribution string
	Costs        []float64
}

// Table2 evaluates the seven heuristics on the nine Table-1
// distributions under RESERVATIONONLY.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg = cfg.withDefaults()
	dists := dist.Table1()
	names := dist.Table1Names()
	m := core.ReservationOnly

	rows := make([]Table2Row, len(dists))
	errs := make([]error, len(dists))
	parallel.ForEach(len(dists), cfg.Workers, func(i int) {
		d := dists[i]
		row := Table2Row{Distribution: names[i], Costs: make([]float64, len(HeuristicNames))}
		wl := workloadFor(d, cfg, uint64(i))

		bf := strategy.BruteForce{M: cfg.M, N: cfg.N, Mode: cfg.evalMode(), Seed: cfg.Seed + uint64(i), Workers: 1}
		res, err := bf.Search(m, d, wl)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: brute force on %s: %w", d.Name(), err)
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

// RenderTable2 formats Table-2 rows in the paper's layout, with each
// heuristic's cost followed by its ratio to the brute-force cost in
// brackets.
func RenderTable2(rows []Table2Row) *tablefmt.Table {
	t := tablefmt.New(
		"Table 2: Normalized expected costs of different heuristics in the ReservationOnly scenario",
		append([]string{"Distribution"}, HeuristicNames...)...)
	for _, r := range rows {
		cells := []string{r.Distribution}
		bf := r.Costs[0]
		for j, c := range r.Costs {
			if j == 0 || math.IsNaN(c) || math.IsNaN(bf) {
				cells = append(cells, tablefmt.Num(c))
			} else {
				cells = append(cells, fmt.Sprintf("%s (%s)", tablefmt.Num(c), tablefmt.Num(c/bf)))
			}
		}
		t.AddRow(cells...)
	}
	return t
}

// Table3Row holds one distribution's row of Table 3.
type Table3Row struct {
	Distribution string
	// BestT1 and BestCost are the brute-force winner.
	BestT1, BestCost float64
	// QuantileT1 and QuantileCost are t1 = Q(p) for
	// p ∈ {0.25, 0.5, 0.75, 0.99} and the resulting normalized costs
	// (NaN = invalid sequence, rendered "-").
	QuantileT1, QuantileCost [4]float64
}

// Table3Quantiles are the probed quantiles of Table 3.
var Table3Quantiles = [4]float64{0.25, 0.5, 0.75, 0.99}

// Table3 compares the brute-force t1 with quantile-based guesses.
func Table3(cfg Config) ([]Table3Row, error) {
	cfg = cfg.withDefaults()
	dists := dist.Table1()
	names := dist.Table1Names()
	m := core.ReservationOnly

	rows := make([]Table3Row, len(dists))
	errs := make([]error, len(dists))
	parallel.ForEach(len(dists), cfg.Workers, func(i int) {
		d := dists[i]
		row := Table3Row{Distribution: names[i]}
		wl := workloadFor(d, cfg, uint64(i))
		bf := strategy.BruteForce{M: cfg.M, N: cfg.N, Mode: cfg.evalMode(), Seed: cfg.Seed + uint64(i), Workers: 1}
		res, err := bf.Search(m, d, wl)
		if err != nil {
			errs[i] = fmt.Errorf("experiments: brute force on %s: %w", d.Name(), err)
			row.BestT1, row.BestCost = math.NaN(), math.NaN()
		} else {
			row.BestT1 = res.Best.T1
			row.BestCost = res.Best.Cost / m.OmniscientCost(d)
		}
		for q, p := range Table3Quantiles {
			t1 := d.Quantile(p)
			row.QuantileT1[q] = t1
			cand, _ := bf.EvaluateT1(m, d, t1, wl)
			if cand.Valid {
				row.QuantileCost[q] = cand.Cost / m.OmniscientCost(d)
			} else {
				row.QuantileCost[q] = math.NaN()
			}
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

// RenderTable3 formats Table-3 rows.
func RenderTable3(rows []Table3Row) *tablefmt.Table {
	t := tablefmt.New(
		"Table 3: Best t1 found by Brute-Force vs t1 at quantiles (normalized cost in brackets, '-' = invalid)",
		"Distribution", "t1_bf (cost)", "Q(0.25)", "Q(0.5)", "Q(0.75)", "Q(0.99)")
	for _, r := range rows {
		cells := []string{
			r.Distribution,
			fmt.Sprintf("%s (%s)", tablefmt.Num(r.BestT1), tablefmt.Num(r.BestCost)),
		}
		for q := range Table3Quantiles {
			cells = append(cells, fmt.Sprintf("%s (%s)",
				tablefmt.Num(r.QuantileT1[q]), tablefmt.Num(r.QuantileCost[q])))
		}
		t.AddRow(cells...)
	}
	return t
}

// Table4SampleCounts is the paper's n axis in Table 4.
var Table4SampleCounts = []int{10, 25, 50, 100, 250, 500, 1000}

// Table4Row holds one distribution's Table-4 entries: the normalized
// cost of each scheme at each sample count.
type Table4Row struct {
	Distribution string
	EqualTime    []float64
	EqualProb    []float64
}

// Table4 sweeps the discretization sample count for both schemes.
func Table4(cfg Config) ([]Table4Row, error) {
	cfg = cfg.withDefaults()
	dists := dist.Table1()
	names := dist.Table1Names()
	m := core.ReservationOnly

	rows := make([]Table4Row, len(dists))
	parallel.ForEach(len(dists), cfg.Workers, func(i int) {
		d := dists[i]
		wl := workloadFor(d, cfg, uint64(i))
		row := Table4Row{
			Distribution: names[i],
			EqualTime:    make([]float64, len(Table4SampleCounts)),
			EqualProb:    make([]float64, len(Table4SampleCounts)),
		}
		for j, n := range Table4SampleCounts {
			for _, which := range []struct {
				st  strategy.Discretized
				out *float64
			}{
				{strategy.Discretized{Scheme: 1, N: n, Epsilon: cfg.Epsilon}, &row.EqualTime[j]},
				{strategy.Discretized{Scheme: 0, N: n, Epsilon: cfg.Epsilon}, &row.EqualProb[j]},
			} {
				s, err := which.st.Sequence(m, d)
				if err != nil {
					*which.out = math.NaN()
					continue
				}
				*which.out = cfg.scoreSequence(m, d, s, wl)
			}
		}
		rows[i] = row
	})
	return rows, nil
}

// RenderTable4 formats Table-4 rows.
func RenderTable4(rows []Table4Row) *tablefmt.Table {
	header := []string{"Distribution"}
	for _, n := range Table4SampleCounts {
		header = append(header, fmt.Sprintf("ET n=%d", n))
	}
	for _, n := range Table4SampleCounts {
		header = append(header, fmt.Sprintf("EP n=%d", n))
	}
	t := tablefmt.New(
		"Table 4: Normalized expected costs of the discretization-based heuristics vs number of samples",
		header...)
	for _, r := range rows {
		cells := []string{r.Distribution}
		for _, v := range r.EqualTime {
			cells = append(cells, tablefmt.Num(v))
		}
		for _, v := range r.EqualProb {
			cells = append(cells, tablefmt.Num(v))
		}
		t.AddRow(cells...)
	}
	return t
}
