package service

import (
	"bytes"
	"math"
	"testing"

	"repro"
	"repro/internal/dist"
	"repro/service/api"
)

// assertPlanBodyEncoded requires the flat encoder to render resp, and
// to render it byte for byte as marshalBody does.
func assertPlanBodyEncoded(t *testing.T, label string, resp *api.PlanResponse) {
	t.Helper()
	want, err := marshalBody(*resp)
	if err != nil {
		t.Fatalf("%s: marshalBody: %v", label, err)
	}
	got, ok := appendPlanBody(resp)
	if !ok {
		t.Fatalf("%s: the encoder declined a plain response", label)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder output differs from marshalBody\n got: %s\nwant: %s", label, got, want)
	}
	if body, err := planBody(resp); err != nil || !bytes.Equal(body, want) {
		t.Fatalf("%s: planBody = %q, %v; want marshalBody's bytes", label, body, err)
	}
}

// TestPlanBodyMatchesMarshalIndent holds the direct plan-body encoder
// to marshalBody, its oracle, on every real response of the Table-1
// grid — each law × each strategy × analytic and Monte-Carlo scoring ×
// the three warmup cost models — and on hand-built responses at the
// edges of encoding/json's float format and of the omitempty fields.
// Every one must be rendered by the encoder itself, not by the
// fallback.
func TestPlanBodyMatchesMarshalIndent(t *testing.T) {
	be := New(Config{})
	for _, d := range dist.Table1() {
		spec, err := repro.DistributionSpec(d)
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range repro.Strategies() {
			for _, mc := range []bool{false, true} {
				for _, m := range warmupModels() {
					req := api.PlanRequest{Distribution: spec, CostModel: m, Strategy: strategy,
						Options: api.Options{MonteCarlo: mc}}
					label := spec + " " + strategy + " " + plannerKey(
						repro.CostModel{Alpha: m.Alpha, Beta: m.Beta, Gamma: m.Gamma}, repro.Options{MonteCarlo: mc})
					in, aerr := be.resolveInputs(req)
					if aerr != nil {
						t.Fatalf("%s: %s", label, aerr.message)
					}
					resp, err := in.planResponse()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					assertPlanBodyEncoded(t, label, resp)
				}
			}
		}
	}

	base := func() *api.PlanResponse {
		var s repro.PlanSummary
		s.Strategy = repro.StrategyBruteForce
		s.Distribution = "lognormal(3,0.5)"
		s.CostModel.Alpha, s.CostModel.Beta, s.CostModel.Gamma = 1, 0, 0
		s.Reservations = []float64{12.5, 31.25, 70}
		s.ExpectedCost, s.NormalizedCost = 30.1, 1.48
		return &api.PlanResponse{Plan: s, CanonicalSpec: "lognormal(3,0.5)",
			Stats: &api.PlanStats{ExpectedAttempts: 1.6, ExpectedReserved: 30.1, ExpectedUsed: 20.3, Utilization: 0.67}}
	}
	edges := []float64{
		1e-6, 9.99e-7, 1e21, 1e20, // the 'e'/'f' boundaries
		5e-324, math.Copysign(0, -1), 0, // the smallest subnormal, ±0
		-1.5, -1e-7, -1e21, -9.99e-7, // negative values on both sides
		1e-7, 1.5e-10, 1e-100, 1e100, 1.7976931348623157e308, 0.1, 123456789.125,
	}
	for _, v := range edges {
		resp := base()
		resp.Plan.CostModel.Alpha, resp.Plan.CostModel.Beta, resp.Plan.CostModel.Gamma = v, v, v
		resp.Plan.Reservations = []float64{v, v}
		resp.Plan.ExpectedCost, resp.Plan.NormalizedCost = v, v
		resp.Stats = &api.PlanStats{ExpectedAttempts: v, ExpectedReserved: v, ExpectedUsed: v, Utilization: v}
		assertPlanBodyEncoded(t, "float "+formatFloat(v), resp)
	}
	for _, tc := range []struct {
		name string
		edit func(*api.PlanResponse)
	}{
		{"base", func(*api.PlanResponse) {}},
		{"nil reservations", func(r *api.PlanResponse) { r.Plan.Reservations = nil }},
		{"empty reservations", func(r *api.PlanResponse) { r.Plan.Reservations = []float64{} }},
		{"one reservation", func(r *api.PlanResponse) { r.Plan.Reservations = []float64{4} }},
		{"empty canonical_spec", func(r *api.PlanResponse) { r.CanonicalSpec = "" }},
		{"empty distribution", func(r *api.PlanResponse) { r.Plan.Distribution = "" }},
		{"empty strategy", func(r *api.PlanResponse) { r.Plan.Strategy = "" }},
		{"nil stats", func(r *api.PlanResponse) { r.Stats = nil }},
		{"all optional fields empty", func(r *api.PlanResponse) {
			r.Plan.Distribution, r.CanonicalSpec, r.Plan.Reservations, r.Stats = "", "", nil, nil
		}},
		{"printable ASCII", func(r *api.PlanResponse) { r.Plan.Distribution = " !#$%'()*+,-./09:;=?@AZ[]^_`az{|}~" }},
	} {
		resp := base()
		tc.edit(resp)
		assertPlanBodyEncoded(t, tc.name, resp)
	}
}

// FuzzPlanBody checks planBody against marshalBody over arbitrary
// strings and floats: the bytes, or the error text, must be the same.
// The encoder renders what it accepts and the fallback renders the
// rest (NaN, ±Inf, HTML characters, control bytes, invalid UTF-8), so
// both halves are held to the oracle.
func FuzzPlanBody(f *testing.F) {
	f.Add("brute-force", "lognormal(3,0.5)", "lognormal(3,0.5)", 1.0, 0.0, 0.0,
		12.5, 31.25, 70.0, 30.1, 1.48, 1.6, 30.1, 20.3, 0.67, uint8(4), true)
	f.Add("mean-doubling", "", "", 9.99e-7, 1e21, 5e-324, math.Copysign(0, -1), 1e20, 1e-6, -1.5, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(1), false)
	f.Add("a<b>&c", "x\"y\\z", "\x00\n \xff", 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, uint8(2), true)
	f.Add("s", "d", "c", 1.0, 1.0, 1.0, math.Inf(1), 2.0, 3.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.NaN(), uint8(3), true)
	f.Fuzz(func(t *testing.T, strategy, distribution, spec string, alpha, beta, gamma,
		r0, r1, r2, expected, normalized, attempts, reserved, used, util float64, shape uint8, hasStats bool) {
		var s repro.PlanSummary
		s.Strategy, s.Distribution = strategy, distribution
		s.CostModel.Alpha, s.CostModel.Beta, s.CostModel.Gamma = alpha, beta, gamma
		switch n := int(shape % 5); n {
		case 0: // nil
		case 1:
			s.Reservations = []float64{}
		default:
			s.Reservations = []float64{r0, r1, r2}[:n-1]
		}
		s.ExpectedCost, s.NormalizedCost = expected, normalized
		resp := api.PlanResponse{Plan: s, CanonicalSpec: spec}
		if hasStats {
			resp.Stats = &api.PlanStats{ExpectedAttempts: attempts, ExpectedReserved: reserved,
				ExpectedUsed: used, Utilization: util}
		}
		want, werr := marshalBody(resp)
		got, gerr := planBody(&resp)
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("planBody error %v, marshalBody error %v", gerr, werr)
		case gerr != nil && gerr.Error() != werr.Error():
			t.Fatalf("planBody error %q, marshalBody error %q", gerr, werr)
		case !bytes.Equal(got, want):
			t.Fatalf("planBody differs from marshalBody\n got: %q\nwant: %q", got, want)
		}
	})
}
