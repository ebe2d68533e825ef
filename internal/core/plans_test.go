package core_test

import (
	"math"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
)

// TestPlansMatchIntegral: for every Table-1 distribution, the plans
// MakePlan actually builds (brute force on a 400-point grid, mean
// doubling, and equal probability from a 300-point DP) cost the same
// under the Eq.-(4) summation as under the Eq.-(3) integral oracle.
// The DP's many closely spaced reservations are where survivalCutoff's
// truncation shows, so this runs on the real plans, not look-alikes.
func TestPlansMatchIntegral(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := repro.Options{GridM: 400, DiscN: 300}
	for _, d := range dist.Table1() {
		for _, name := range []string{repro.StrategyBruteForce, repro.StrategyMeanDoubling, repro.StrategyEqualProb} {
			p, err := repro.MakePlan(repro.ReservationOnly, d, name, opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", d.Name(), name, err)
			}
			integral, err := core.ExpectedCostIntegral(repro.ReservationOnly, d, p.Sequence().Clone())
			if err != nil {
				t.Fatalf("%s/%s integral: %v", d.Name(), name, err)
			}
			if math.Abs(integral-p.ExpectedCost) > 2e-4*math.Max(1, p.ExpectedCost) {
				t.Errorf("%s/%s: integral %g vs summation %g", d.Name(), name, integral, p.ExpectedCost)
			}
		}
	}
}
