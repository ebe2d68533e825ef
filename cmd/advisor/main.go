// Command advisor is the end-to-end tool a practitioner would run: feed
// it a trace of historical execution times (one duration per line, or a
// CSV column), and it fits candidate distributions, selects the best by
// Kolmogorov–Smirnov distance, plans a reservation strategy, and prints
// the plan with its operating statistics and Reserved-vs-On-Demand
// verdict.
//
//	advisor -trace runs.txt
//	advisor -trace runs.csv -col 2 -alpha 0.95 -beta 1 -gamma 1.05
//	advisor -trace runs.txt -strategy equal-probability -json
//
// With -demo it synthesizes a VBMQA-like trace instead of reading a
// file, so the tool can be tried without data.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/dist"
	"repro/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file: one duration per line, or CSV (see -col)")
		col       = flag.Int("col", 1, "1-based CSV column holding the durations")
		demo      = flag.Bool("demo", false, "use a synthetic VBMQA-like trace instead of -trace")
		strat     = flag.String("strategy", repro.StrategyBruteForce, "strategy: "+strings.Join(repro.Strategies(), "|"))
		alpha     = flag.Float64("alpha", 1, "cost per requested time unit")
		beta      = flag.Float64("beta", 0, "cost per used time unit")
		gamma     = flag.Float64("gamma", 0, "per-reservation overhead")
		ratio     = flag.Float64("odratio", 4, "On-Demand/Reserved price ratio for the verdict")
		asJSON    = flag.Bool("json", false, "emit the plan as JSON")
	)
	flag.Parse()

	samples, err := loadTrace(*tracePath, *col, *demo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(1)
	}
	if err := run(os.Stdout, samples, *strat, repro.CostModel{Alpha: *alpha, Beta: *beta, Gamma: *gamma}, *ratio, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "advisor:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, samples []float64, strat string, m repro.CostModel, odRatio float64, asJSON bool) error {
	fits, err := dist.BestFit(samples)
	if err != nil {
		return err
	}
	best := fits[0]
	plan, err := repro.MakePlan(m, best.Dist, strat, repro.Options{})
	if err != nil {
		return err
	}
	if asJSON {
		raw, err := plan.JSON()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(raw))
		return nil
	}

	mean, sd := dist.SampleMoments(samples)
	fmt.Fprintf(w, "trace:            %d runs, mean %.4g, sd %.4g\n", len(samples), mean, sd)
	crit := dist.KSCriticalValue(len(samples), 0.05)
	fmt.Fprintf(w, "candidate fits (Kolmogorov–Smirnov; DKW 5%% acceptance bound %.4f):\n", crit)
	for _, f := range fits {
		marker := " "
		if f.Family == best.Family {
			marker = "*"
		}
		verdict := "ok"
		if f.KS > crit {
			verdict = "rejected"
		}
		fmt.Fprintf(w, "  %s %-12s KS=%.4f (%s)  %s\n", marker, f.Family, f.KS, verdict, f.Dist.Name())
	}
	if best.KS > crit {
		fmt.Fprintf(w, "  warning: even the best family is rejected at 5%%; consider the empirical law\n")
	}
	fmt.Fprintf(w, "\ncost model:       %v\n", m)
	fmt.Fprintf(w, "strategy:         %s\n", strat)
	fmt.Fprintf(w, "reservations:     %.5g\n", plan.Reservations)
	fmt.Fprintf(w, "expected cost:    %.5g (%.3f× omniscient)\n", plan.ExpectedCost, plan.NormalizedCost)
	if st, err := plan.Stats(); err == nil {
		fmt.Fprintf(w, "expected attempts %.3f, utilization %.1f%%\n", st.ExpectedAttempts, 100*st.Utilization)
	}
	if p99, err := plan.CostQuantile(0.99); err == nil {
		fmt.Fprintf(w, "p99 cost:         %.5g\n", p99)
	}
	if ok, err := plan.ReservedVsOnDemand(odRatio); err == nil {
		verdict := "stay on demand"
		if ok {
			verdict = "RESERVE"
		}
		fmt.Fprintf(w, "verdict (OD/RI ×%.1f): %s\n", odRatio, verdict)
	}
	return nil
}

// loadTrace reads durations from a file (plain or CSV) or synthesizes a
// demo trace.
func loadTrace(path string, col int, demo bool) ([]float64, error) {
	if demo {
		return trace.GenerateRunTrace(trace.VBMQA, 5000, 0.01, 42)
	}
	if path == "" {
		return nil, fmt.Errorf("need -trace FILE or -demo")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ParseTrace(f, col)
}

// ParseTrace reads one duration per record from r: plain lines of
// numbers, or CSV rows whose col-th (1-based) field is numeric. Header
// rows and blank lines are skipped; any other malformed row is an error.
func ParseTrace(r io.Reader, col int) ([]float64, error) {
	if col < 1 {
		return nil, fmt.Errorf("column must be >= 1, got %d", col)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	var out []float64
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", row+1, err)
		}
		row++
		if len(rec) == 1 && strings.TrimSpace(rec[0]) == "" {
			continue
		}
		if col > len(rec) {
			return nil, fmt.Errorf("row %d has %d fields, need column %d", row, len(rec), col)
		}
		field := strings.TrimSpace(rec[col-1])
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			if row == 1 {
				continue // header
			}
			return nil, fmt.Errorf("row %d: %q is not a number", row, field)
		}
		if !(v > 0) {
			return nil, fmt.Errorf("row %d: duration %g must be positive", row, v)
		}
		out = append(out, v)
	}
	if len(out) < 2 {
		return nil, fmt.Errorf("trace has only %d usable durations", len(out))
	}
	return out, nil
}
