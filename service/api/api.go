// Package api is the versioned (v1) wire schema of the plan service:
// the request, response, and error DTOs exchanged on /v1/plan and
// /v1/simulate, the stable error-code table, and the header and path
// names shared by every producer and consumer. The backend handlers
// (internal/service), the sharding frontend, the typed client
// (repro/client), and the benchmark driver (perfbench) all import
// these definitions, so the wire schema has exactly one Go definition.
//
// Compatibility contract: fields are only ever added, never renamed or
// re-typed, within v1; error codes in the table below are stable
// strings clients may switch on.
package api

import (
	"sort"

	"repro"
)

// Paths of the v1 endpoints.
const (
	PathPlan     = "/v1/plan"
	PathSimulate = "/v1/simulate"
	PathHealthz  = "/healthz"
	PathVars     = "/debug/vars"
)

// Header names carrying serving metadata.
const (
	// HeaderCache reports which path served a response: "hit", "miss",
	// or "coalesced". The body never varies with it.
	HeaderCache = "X-Cache"
	// HeaderShard reports the backend shard a frontend routed the
	// request to.
	HeaderShard = "X-Shard"
	// HeaderTenant names the requesting tenant for fair-share
	// admission; empty selects the default tenant.
	HeaderTenant = "X-Tenant"
)

// CostModel mirrors repro.CostModel on the wire: the affine
// reservation cost α·t1 + β·min(t1, t) + γ.
type CostModel struct {
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Gamma float64 `json:"gamma"`
}

// Options mirrors repro.Options on the wire. Workers is absent on
// purpose: the server always computes with Workers = 1, one goroutine
// per computation, and scales across requests instead.
type Options struct {
	GridM       int     `json:"grid_m,omitempty"`
	SamplesN    int     `json:"samples_n,omitempty"`
	DiscN       int     `json:"disc_n,omitempty"`
	Epsilon     float64 `json:"epsilon,omitempty"`
	Seed        uint64  `json:"seed,omitempty"`
	MonteCarlo  bool    `json:"monte_carlo,omitempty"`
	PreviewLen  int     `json:"preview_len,omitempty"`
	MaxAttempts int     `json:"max_attempts,omitempty"`
}

// PlanRequest is the body of POST /v1/plan.
type PlanRequest struct {
	// Distribution is a spec in the ParseDistribution grammar, e.g.
	// "lognormal(3,0.5)". Any accepted spelling works; the service
	// canonicalizes it and reports the canonical form in the response.
	Distribution string    `json:"distribution"`
	CostModel    CostModel `json:"cost_model"`
	// Strategy is a repro.Strategies() name; empty means brute-force.
	Strategy string  `json:"strategy,omitempty"`
	Options  Options `json:"options,omitempty"`
}

// SimulateRequest is the body of POST /v1/simulate: a plan request
// plus the Monte-Carlo evaluation parameters.
type SimulateRequest struct {
	PlanRequest
	// Samples is the number of sampled jobs (default 1000).
	Samples int `json:"samples,omitempty"`
	// SimSeed drives the evaluation sampler (independent of
	// options.seed, which drives Monte-Carlo *scoring*).
	SimSeed uint64 `json:"sim_seed,omitempty"`
}

// PlanStats is the closed-form operating statistics included in a plan
// response.
type PlanStats struct {
	ExpectedAttempts float64 `json:"expected_attempts"`
	ExpectedReserved float64 `json:"expected_reserved"`
	ExpectedUsed     float64 `json:"expected_used"`
	Utilization      float64 `json:"utilization"`
}

// PlanResponse is the body of a successful POST /v1/plan.
type PlanResponse struct {
	Plan repro.PlanSummary `json:"plan"`
	// CanonicalSpec is the canonical distribution spec the service
	// actually keyed its caches (and consistent-hash routing) with, so
	// clients can observe the normalization of their request spelling.
	CanonicalSpec string     `json:"canonical_spec,omitempty"`
	Stats         *PlanStats `json:"stats,omitempty"`
}

// SimulateResponse is the body of a successful POST /v1/simulate.
type SimulateResponse struct {
	Plan repro.PlanSummary `json:"plan"`
	// CanonicalSpec is the cache/routing key spec, as in PlanResponse.
	CanonicalSpec  string  `json:"canonical_spec,omitempty"`
	Samples        int     `json:"samples"`
	SimSeed        uint64  `json:"sim_seed"`
	NormalizedCost float64 `json:"normalized_cost"`
	StdErr         float64 `json:"std_err"`
}

// ErrorBody is the payload of the error envelope.
type ErrorBody struct {
	// Code is one of the stable strings in the code table (Codes).
	Code    string `json:"code"`
	Message string `json:"message"`
	// RetryAfterSeconds accompanies over_quota responses: how long the
	// client should wait before its tenant's token bucket readmits it.
	// The same value is carried in the Retry-After header, which only
	// has whole-second resolution.
	RetryAfterSeconds float64 `json:"retry_after_seconds,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// The stable error codes. The table is append-only: removing or
// renaming a code breaks deployed clients.
const (
	// CodeBadRequest: the request body failed to decode or validate.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed: wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodeNotFound: unknown path.
	CodeNotFound = "not_found"
	// CodePlanFailed: the planner failed on a valid request.
	CodePlanFailed = "plan_failed"
	// CodeTimeout: the computation exceeded the per-request budget.
	CodeTimeout = "timeout"
	// CodeCanceled: the client went away before the computation ended.
	CodeCanceled = "canceled"
	// CodeOverQuota: the tenant exhausted its fair-share token bucket;
	// retry after ErrorBody.RetryAfterSeconds.
	CodeOverQuota = "over_quota"
	// CodeUnavailable: every backend shard failed or is unhealthy.
	CodeUnavailable = "unavailable"
)

// codeStatus maps each stable code to its HTTP status.
var codeStatus = map[string]int{
	CodeBadRequest:       400,
	CodeMethodNotAllowed: 405,
	CodeNotFound:         404,
	CodePlanFailed:       500,
	CodeTimeout:          504,
	CodeCanceled:         503,
	CodeOverQuota:        429,
	CodeUnavailable:      502,
}

// Status returns the HTTP status an error code is served with;
// unknown codes map to 500.
func Status(code string) int {
	if s, ok := codeStatus[code]; ok {
		return s
	}
	return 500
}

// Codes returns the stable error-code table, sorted.
func Codes() []string {
	out := make([]string, 0, len(codeStatus))
	for c := range codeStatus {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
