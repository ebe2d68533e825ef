package strategy_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/strategy"
)

// ExampleBruteForce_Search reproduces the §3.5 result: for Exp(1) under
// RESERVATIONONLY, the optimal first reservation is s1 ≈ 0.742 with
// expected cost ≈ 2.36.
func ExampleBruteForce_Search() {
	d := dist.MustExponential(1)
	bf := strategy.BruteForce{M: 2000, Mode: strategy.EvalAnalytic}
	res, _ := bf.Search(core.ReservationOnly, d, nil)
	fmt.Printf("t1 ≈ %.1f, cost ≈ %.2f\n", res.Best.T1, res.Best.Cost)
	// Output:
	// t1 ≈ 0.7, cost ≈ 2.36
}

// ExampleMeanByMean shows the Appendix-B closed form in action: for an
// exponential law the conditional-mean chain is arithmetic.
func ExampleMeanByMean() {
	d := dist.MustExponential(0.5) // mean 2
	s, _ := strategy.MeanByMean{}.Sequence(core.ReservationOnly, d)
	v, _ := s.Prefix(4)
	fmt.Printf("%.0f\n", v)
	// Output:
	// [2 4 6 8]
}

// ExampleDiscretized runs the §4.2 pipeline: discretize, solve the DP,
// lift the sequence. For Uniform(10, 20) it recovers Theorem 4's single
// reservation at b.
func ExampleDiscretized() {
	d := dist.MustUniform(10, 20)
	s, _ := strategy.Discretized{N: 200}.Sequence(core.ReservationOnly, d)
	v, _ := s.Prefix(5)
	fmt.Printf("%.0f\n", v)
	// Output:
	// [20]
}
