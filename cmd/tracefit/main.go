// Command tracefit exercises the paper's data pipeline on the synthetic
// trace substrate (the substitutes for the proprietary Vanderbilt
// neuroscience traces of Fig. 1 and the Intrepid wait-time log of
// Fig. 2):
//
//	tracefit -app vbmqa -runs 5000   # generate + fit a run trace
//	tracefit -app fmriqa
//	tracefit -waittimes              # generate + fit the wait-time log
//
// For run traces it prints the fitted LogNormal parameters next to the
// published ones and the Kolmogorov–Smirnov fit statistic; for the
// wait-time log it prints the fitted affine law next to the published
// (α=0.95, γ=3771.84 s).
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/platform"
	"repro/internal/trace"
)

func main() {
	var (
		app       = flag.String("app", "vbmqa", "application trace to generate: vbmqa|fmriqa")
		runs      = flag.Int("runs", 5000, "number of runs in the synthetic trace")
		jitter    = flag.Float64("jitter", 0.01, "relative measurement jitter")
		waittimes = flag.Bool("waittimes", false, "fit the wait-time log instead of a run trace")
		groups    = flag.Int("groups", 20, "wait-time log: number of job groups")
		noise     = flag.Float64("noise", 0.05, "wait-time log: relative noise")
		seed      = flag.Uint64("seed", 42, "random seed")
		hist      = flag.Int("hist", 0, "also print a text histogram with this many bins")
		simqueue  = flag.Bool("simqueue", false, "derive the wait-time law from a simulated EASY-backfilling cluster instead of the synthetic log")
		nodes     = flag.Int("nodes", 16, "simulated cluster size (with -simqueue)")
		jobs      = flag.Int("jobs", 3000, "simulated workload size (with -simqueue)")
	)
	flag.Parse()

	if *simqueue {
		if err := deriveWaits(*nodes, *jobs, *groups, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tracefit:", err)
			os.Exit(1)
		}
		return
	}
	if *waittimes {
		if err := fitWaits(*groups, *noise, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "tracefit:", err)
			os.Exit(1)
		}
		return
	}
	if err := fitRuns(*app, *runs, *jitter, *seed, *hist); err != nil {
		fmt.Fprintln(os.Stderr, "tracefit:", err)
		os.Exit(1)
	}
}

func fitRuns(name string, runs int, jitter float64, seed uint64, histBins int) error {
	var app trace.Application
	switch strings.ToLower(name) {
	case "vbmqa":
		app = trace.VBMQA
	case "fmriqa":
		app = trace.FMRIQA
	default:
		return fmt.Errorf("unknown application %q (want vbmqa or fmriqa)", name)
	}
	samples, err := trace.GenerateRunTrace(app, runs, jitter, seed)
	if err != nil {
		return err
	}
	fitted, err := dist.FitLogNormal(samples)
	if err != nil {
		return err
	}
	mean, sd := dist.SampleMoments(samples)
	fmt.Printf("application:      %s (%d synthetic runs, jitter %.1f%%)\n", app.Name, runs, jitter*100)
	fmt.Printf("sample moments:   mean %.2f s, sd %.2f s\n", mean, sd)
	fmt.Printf("fitted LogNormal: μ = %.4f  σ = %.4f\n", fitted.Mu(), fitted.Sigma())
	fmt.Printf("published fit:    μ = %.4f  σ = %.4f\n", app.Mu, app.Sigma)
	fmt.Printf("KS statistic:     %.4f\n", dist.KSStatistic(samples, fitted))
	fmt.Printf("fitted mean:      %.2f s = %.3f h\n", fitted.Mean(), fitted.Mean()/platform.SecondsPerHour)
	if histBins > 0 {
		h, err := trace.NewHistogram(samples, histBins)
		if err != nil {
			return err
		}
		fmt.Printf("\nhistogram (mode ≈ %.0f s):\n%s", h.Mode(), h.Render(60))
	}
	return nil
}

// deriveWaits runs the first-principles Fig.-2 derivation: simulate an
// EASY-backfilling cluster under a congested workload and fit the
// emergent wait-vs-requested profile.
func deriveWaits(nodes, jobs, groups int, seed uint64) error {
	// Pick the Poisson arrival rate for ≈90% offered load: the
	// log-uniform requested time has mean (b-a)/ln(b/a), jobs use ~85%
	// of it, and node counts average (1+maxJobNodes)/2.
	const reqMin, reqMax, useFrac = 600.0, 72000.0, 0.7
	maxJobNodes := nodes * 3 / 4
	meanReq := (reqMax - reqMin) / math.Log(reqMax/reqMin)
	meanRun := meanReq * (useFrac + 1) / 2
	meanNodes := float64(1+maxJobNodes) / 2
	rate := 0.9 * float64(nodes) / (meanRun * meanNodes)
	wl := cluster.Fig2Workload{
		Jobs: jobs, MaxJobNodes: maxJobNodes, ArrivalRate: rate,
		RequestedMin: reqMin, RequestedMax: reqMax, UseFraction: useFrac, Seed: seed,
	}
	model, prof, stats, err := cluster.DeriveWaitTimeModel(nodes, wl, groups)
	if err != nil {
		return err
	}
	fmt.Printf("simulated cluster: %d nodes, %d jobs, EASY backfilling\n", nodes, jobs)
	fmt.Printf("utilization %.1f%%, %d backfilled, %d killed, mean wait %.0f s\n\n",
		100*stats.Utilization, stats.Backfilled, stats.Killed, stats.MeanWait)
	fmt.Printf("%-14s %-14s %s\n", "requested(s)", "avg wait(s)", "jobs")
	for _, g := range prof {
		fmt.Printf("%-14.0f %-14.0f %d\n", g.RequestedSec, g.AvgWaitSec, g.Jobs)
	}
	fmt.Printf("\nderived affine law:  wait = %.4f·req + %.2f s\n", model.Alpha, model.Gamma)
	fmt.Printf("published Fig.2 fit: wait = %.4f·req + %.2f s\n", trace.Intrepid409.Alpha, trace.Intrepid409.Gamma)
	fmt.Printf("NeuroHPC model:      %v (hours)\n", platform.NeuroHPCFromWaitModel(model))
	return nil
}

func fitWaits(groups int, noise float64, seed uint64) error {
	log, err := trace.GenerateWaitTimeLog(trace.Intrepid409, groups, 600, 72000, noise, seed)
	if err != nil {
		return err
	}
	fit, err := trace.FitWaitTimeModel(log)
	if err != nil {
		return err
	}
	fmt.Printf("wait-time log:  %d groups, noise %.1f%%\n", groups, noise*100)
	fmt.Printf("%-12s %-12s %s\n", "requested(s)", "avg wait(s)", "jobs")
	for _, g := range log {
		fmt.Printf("%-12.0f %-12.0f %d\n", g.RequestedSec, g.AvgWaitSec, g.Jobs)
	}
	fmt.Printf("fitted affine:    wait = %.4f·req + %.2f s\n", fit.Alpha, fit.Gamma)
	fmt.Printf("published fit:    wait = %.4f·req + %.2f s\n", trace.Intrepid409.Alpha, trace.Intrepid409.Gamma)
	m := platform.NeuroHPCFromWaitModel(fit)
	fmt.Printf("NeuroHPC model:   %v (hours)\n", m)
	return nil
}
