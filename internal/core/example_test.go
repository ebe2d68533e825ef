package core_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
)

// ExampleExpectedCost evaluates Eq. (4) for the two-reservation UNIFORM
// example worked in §2.3 of the paper.
func ExampleExpectedCost() {
	d := dist.MustUniform(10, 20)
	s, _ := core.NewExplicitSequence(15, 20)
	e, _ := core.ExpectedCost(core.ReservationOnly, d, s)
	fmt.Printf("%.2f\n", e)
	// Output:
	// 25.00
}

// ExampleCostModel_RunCost prices one job under a sequence (Eq. 2).
func ExampleCostModel_RunCost() {
	m := core.CostModel{Alpha: 1, Beta: 0.5, Gamma: 2}
	s, _ := core.NewExplicitSequence(2, 4, 8)
	cost, attempts, _ := m.RunCost(s, 5) // needs three attempts
	fmt.Printf("%.1f over %d attempts\n", cost, attempts)
	// Output:
	// 25.5 over 3 attempts
}

// ExampleSequenceFromFirstTail expands a first reservation with the
// optimal recurrence of Theorem 3 (Eq. 11) under the strict rule
// (tailEps = 0): for Exp(1), t2 = e^{t1}.
func ExampleSequenceFromFirstTail() {
	d := dist.MustExponential(1)
	s := core.SequenceFromFirstTail(core.ReservationOnly, d, 0.5, 0)
	v, _ := s.Prefix(2)
	fmt.Printf("t1=%.3f t2=%.3f\n", v[0], v[1])
	// Output:
	// t1=0.500 t2=1.649
}

// ExampleBoundFirstReservation computes the Theorem-2 search bound A1.
func ExampleBoundFirstReservation() {
	d := dist.MustExponential(1)
	fmt.Printf("%.0f\n", core.BoundFirstReservation(core.ReservationOnly, d))
	// Output:
	// 4
}

// ExampleStats reports the closed-form operating statistics of a plan.
func ExampleStats() {
	d := dist.MustUniform(10, 20)
	s, _ := core.NewExplicitSequence(15, 20)
	st, _ := core.Stats(core.ReservationOnly, d, s)
	fmt.Printf("attempts %.1f, reserved %.0f, utilization %.2f\n",
		st.ExpectedAttempts, st.ExpectedReserved, st.Utilization)
	// Output:
	// attempts 1.5, reserved 25, utilization 0.90
}
