// Command reserve computes a reservation strategy for a stochastic job:
//
//	reserve -dist 'lognormal(3,0.5)' -strategy brute-force
//	reserve -dist 'uniform(10,20)' -alpha 1 -beta 0 -gamma 0
//	reserve -dist 'exponential(1)' -strategy mean-doubling -job 2.5
//	reserve -dist 'lognormal(-1.0759,0.2039)' -neurohpc
//
// It prints the reservation sequence, its exact expected cost (Eq. 4 of
// the paper), the normalized cost against the omniscient scheduler,
// and — with -job t — the concrete cost of running a job of duration t.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro"
)

func main() {
	var (
		distSpec = flag.String("dist", "", "distribution, e.g. 'exponential(1)', 'lognormal(3,0.5)', 'uniform(10,20)', 'weibull(1,0.5)', 'gamma(2,2)', 'truncnormal(8,1.414,0)', 'pareto(1.5,3)', 'beta(2,2)', 'boundedpareto(1,20,2.1)'")
		strat    = flag.String("strategy", repro.StrategyBruteForce, "strategy: "+strings.Join(repro.Strategies(), "|"))
		alpha    = flag.Float64("alpha", 1, "cost coefficient on the reserved duration")
		beta     = flag.Float64("beta", 0, "cost coefficient on the used duration")
		gamma    = flag.Float64("gamma", 0, "per-reservation overhead")
		neuro    = flag.Bool("neurohpc", false, "use the NeuroHPC cost model (α=0.95, β=1, γ=1.05h); overrides -alpha/-beta/-gamma")
		job      = flag.Float64("job", math.NaN(), "also price a job of this exact duration")
		gridM    = flag.Int("M", 5000, "brute-force grid points")
		discN    = flag.Int("n", 1000, "discretization samples")
		preview  = flag.Int("preview", 10, "reservations to print")
		asJSON   = flag.Bool("json", false, "emit the plan as JSON instead of text")
	)
	flag.Parse()

	if *distSpec == "" {
		fmt.Fprintln(os.Stderr, "reserve: -dist is required")
		flag.Usage()
		os.Exit(2)
	}
	d, err := repro.ParseDistribution(*distSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reserve:", err)
		os.Exit(1)
	}
	m := repro.CostModel{Alpha: *alpha, Beta: *beta, Gamma: *gamma}
	if *neuro {
		m = repro.NeuroHPC()
	}
	plan, err := repro.MakePlan(m, d, *strat, repro.Options{GridM: *gridM, DiscN: *discN, PreviewLen: *preview})
	if err != nil {
		fmt.Fprintln(os.Stderr, "reserve:", err)
		os.Exit(1)
	}

	if *asJSON {
		raw, err := plan.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "reserve:", err)
			os.Exit(1)
		}
		fmt.Println(string(raw))
		return
	}

	fmt.Printf("distribution:    %s (mean %.4g)\n", d.Name(), d.Mean())
	fmt.Printf("cost model:      %v\n", m)
	fmt.Printf("strategy:        %s\n", *strat)
	fmt.Printf("reservations:    %.5g\n", plan.Reservations)
	fmt.Printf("expected cost:   %.5g\n", plan.ExpectedCost)
	fmt.Printf("normalized cost: %.4f (1.0 = omniscient)\n", plan.NormalizedCost)
	if ok, err := plan.ReservedVsOnDemand(4); err == nil {
		fmt.Printf("vs on-demand ×4: reservation worthwhile = %v\n", ok)
	}
	if st, err := plan.Stats(); err == nil {
		fmt.Printf("attempts:        %.3f expected (P1=%.0f%%, P2=%.0f%%)\n",
			st.ExpectedAttempts, 100*attemptProb(st, 0), 100*attemptProb(st, 1))
		fmt.Printf("utilization:     %.1f%% of reserved time used\n", 100*st.Utilization)
	}
	if p99, err := plan.CostQuantile(0.99); err == nil {
		fmt.Printf("p99 cost:        %.5g\n", p99)
	}
	if !math.IsNaN(*job) {
		cost, attempts, err := plan.CostFor(*job)
		if err != nil {
			fmt.Fprintln(os.Stderr, "reserve: pricing job:", err)
			os.Exit(1)
		}
		fmt.Printf("job of %.4g:     cost %.5g over %d reservation(s)\n", *job, cost, attempts)
	}
}

// attemptProb safely indexes the attempt-count distribution.
func attemptProb(st repro.PlanStats, i int) float64 {
	if i < len(st.AttemptProbs) {
		return st.AttemptProbs[i]
	}
	return 0
}
