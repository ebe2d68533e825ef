// Command experiments regenerates every table and figure of the
// paper's evaluation section (§5):
//
//	experiments -run table1   # distribution properties and bounds
//	experiments -run table2   # heuristic comparison, ReservationOnly
//	experiments -run table3   # brute-force t1 vs quantile guesses
//	experiments -run table4   # discretization sample-count sweep
//	experiments -run fig3     # cost vs t1 series (CSV per distribution)
//	experiments -run fig4     # NeuroHPC scenario with scaled moments
//	experiments -run exp1     # §3.5: optimal s1 for Exp(1)
//	experiments -run all      # everything above
//
// The default parameters are the paper's (M=5000 grid points, N=1000
// Monte-Carlo samples, n=1000 discretization samples, ε=1e-7); pass
// -analytic to score with the exact Eq.-(4) value instead of the
// paper's Monte-Carlo protocol, and -csv DIR to also write CSV files.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/tablefmt"
	"repro/internal/trace"
)

func main() {
	var (
		run      = flag.String("run", "all", "experiment to run: table1|table2|table3|table4|fig3|fig4|exp1|ablations|all")
		gridM    = flag.Int("M", 5000, "brute-force grid points")
		samplesN = flag.Int("N", 1000, "Monte-Carlo samples")
		discN    = flag.Int("n", 1000, "discretization samples")
		epsilon  = flag.Float64("eps", 1e-7, "truncation quantile")
		seed     = flag.Uint64("seed", 42, "random seed")
		analytic = flag.Bool("analytic", false, "score with the exact Eq.(4) value instead of Monte Carlo")
		csvDir   = flag.String("csv", "", "also write CSV files into this directory")
		report   = flag.String("report", "", "write a full Markdown report to this file and exit")
	)
	flag.Parse()

	cfg := experiments.Config{
		M: *gridM, N: *samplesN, DiscN: *discN,
		Epsilon: *epsilon, Seed: *seed, Analytic: *analytic,
	}
	if *report != "" {
		out, err := experiments.FullReport(cfg)
		if err == nil {
			err = os.WriteFile(*report, []byte(out), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println("report written to", *report)
		return
	}
	if err := runAll(cfg, strings.ToLower(*run), *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func runAll(cfg experiments.Config, which, csvDir string) error {
	want := func(name string) bool { return which == "all" || which == name }
	emit := func(name string, t *tablefmt.Table) error {
		fmt.Println(t.String())
		if csvDir == "" {
			return nil
		}
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(csvDir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}

	any := false
	if want("table1") {
		any = true
		if err := emit("table1", experiments.Table1Properties()); err != nil {
			return err
		}
	}
	if want("table2") {
		any = true
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		if err := emit("table2", experiments.RenderTable2(rows)); err != nil {
			return err
		}
	}
	if want("table3") {
		any = true
		rows, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		if err := emit("table3", experiments.RenderTable3(rows)); err != nil {
			return err
		}
	}
	if want("table4") {
		any = true
		rows, err := experiments.Table4(cfg)
		if err != nil {
			return err
		}
		if err := emit("table4", experiments.RenderTable4(rows)); err != nil {
			return err
		}
	}
	if want("fig3") {
		any = true
		series, err := experiments.Fig3(cfg)
		if err != nil {
			return err
		}
		for _, s := range series {
			name := "fig3_" + strings.ToLower(s.Distribution)
			t := experiments.RenderFig3(s)
			if csvDir != "" {
				if err := os.MkdirAll(csvDir, 0o755); err != nil {
					return err
				}
				f, err := os.Create(filepath.Join(csvDir, name+".csv"))
				if err != nil {
					return err
				}
				if err := t.WriteCSV(f); err != nil {
					_ = f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return err
				}
			}
			fmt.Printf("Fig. 3 (%s): %d candidates, best t1 = %.4g\n",
				s.Distribution, len(s.T1), s.BestT1)
			// Clip extreme candidates for display so the basin around
			// the optimum stays visible.
			best := s.Cost[0]
			for _, c := range s.Cost {
				if !math.IsNaN(c) && (math.IsNaN(best) || c < best) {
					best = c
				}
			}
			clipped := make([]float64, len(s.Cost))
			for i, c := range s.Cost {
				if !math.IsNaN(c) && c > 5*best {
					c = 5 * best
				}
				clipped[i] = c
			}
			if plot := tablefmt.Plot("", s.T1, clipped, 72, 12); plot != "" {
				fmt.Print(plot)
			}
		}
		fmt.Println()
	}
	if want("fig4") {
		any = true
		rows, err := experiments.Fig4(cfg)
		if err != nil {
			return err
		}
		if err := emit("fig4", experiments.RenderFig4(rows)); err != nil {
			return err
		}
		row, m, err := experiments.Fig4FromTrace(cfg, trace.VBMQA, 5000)
		if err != nil {
			return err
		}
		fmt.Printf("Fig. 4 pipeline check (fitted from synthetic VBMQA trace, model %v):\n", m)
		for j, c := range row.Costs {
			fmt.Printf("  %-14s %s\n", experiments.HeuristicNames[j], tablefmt.Num(c))
		}
		fmt.Println()
	}
	if want("ablations") {
		any = true
		if err := emit("ablation_taileps", experiments.RenderAblationTailEps(experiments.AblationTailEps(cfg))); err != nil {
			return err
		}
		rows, err := experiments.AblationScoring(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_scoring", experiments.RenderAblationScoring(rows)); err != nil {
			return err
		}
		ck, err := experiments.AblationCheckpoint(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_checkpoint", experiments.RenderAblationCheckpoint(ck)); err != nil {
			return err
		}
		res, err := experiments.AblationResources(cfg)
		if err != nil {
			return err
		}
		if err := emit("ablation_resources", experiments.RenderAblationResources(res)); err != nil {
			return err
		}
		on, err := experiments.StudyOnline(cfg)
		if err != nil {
			return err
		}
		if err := emit("study_online", experiments.RenderStudyOnline(on)); err != nil {
			return err
		}
		qs, err := experiments.StudyQueueDerivedWaits(cfg)
		if err != nil {
			return err
		}
		if err := emit("study_queuesim", experiments.RenderQueueStudy(qs)); err != nil {
			return err
		}
		ms, err := experiments.StudyMisspecification(cfg)
		if err != nil {
			return err
		}
		if err := emit("study_misspec", experiments.RenderMisspecification(ms)); err != nil {
			return err
		}
		bi, err := experiments.StudyBimodal(cfg)
		if err != nil {
			return err
		}
		if err := emit("study_bimodal", experiments.RenderStudyBimodal(bi)); err != nil {
			return err
		}
		ov, err := experiments.StudyOverheadSensitivity(cfg)
		if err != nil {
			return err
		}
		if err := emit("study_overhead", experiments.RenderStudyOverhead(ov)); err != nil {
			return err
		}
		ab, err := experiments.StudyAttemptBudget(cfg)
		if err != nil {
			return err
		}
		if err := emit("study_attempts", experiments.RenderStudyAttemptBudget(ab)); err != nil {
			return err
		}
	}
	if want("exp1") {
		any = true
		res, err := experiments.Exp1(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("§3.5 Exp(1) ReservationOnly: s1 = %.5f (paper: ≈0.74219), E1 = %.5f\n", res.S1, res.E1)
		fmt.Printf("optimal sequence prefix: %.5g (s2 = e^{s1} = %.5f)\n\n", res.Sequence, res.Sequence[1])
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}
