package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/parallel"
	"repro/service/api"
)

// waitFor polls cond until it holds or a generous deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 5000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fakeClock is a deterministic Config.Now: every reading advances by
// one millisecond.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(time.Millisecond)
	return c.t
}

func newTestServer(t *testing.T, cfg Config) (*Backend, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post issues a POST and returns status, X-Cache header, and body.
func post(t *testing.T, url, body string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), b
}

func errorCode(t *testing.T, body []byte) string {
	t.Helper()
	var e api.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, body)
	}
	return e.Error.Code
}

const basePlanBody = `{
  "distribution": "lognormal(3,0.5)",
  "cost_model": {"alpha": 1},
  "strategy": "equal-probability",
  "options": {"disc_n": 200}
}`

// TestPlanEndpoint: the served plan matches the library's MakePlan and
// carries the closed-form stats.
func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, cache, body := post(t, ts.URL+"/v1/plan", basePlanBody)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d, X-Cache %q\n%s", status, cache, body)
	}
	var resp api.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	d, _ := repro.LogNormal(3, 0.5)
	want, err := repro.MakePlan(repro.ReservationOnly, d, repro.StrategyEqualProb,
		repro.Options{DiscN: 200, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Plan.ExpectedCost != want.ExpectedCost || resp.Plan.NormalizedCost != want.NormalizedCost {
		t.Errorf("cost %g/%g, want %g/%g",
			resp.Plan.ExpectedCost, resp.Plan.NormalizedCost, want.ExpectedCost, want.NormalizedCost)
	}
	if resp.Plan.Distribution != "lognormal(3,0.5)" {
		t.Errorf("distribution spec %q", resp.Plan.Distribution)
	}
	if resp.Stats == nil {
		t.Fatal("stats missing")
	}
	if resp.Stats.Utilization <= 0 || resp.Stats.Utilization > 1 {
		t.Errorf("utilization %g", resp.Stats.Utilization)
	}
	if resp.Stats.ExpectedAttempts < 1 {
		t.Errorf("expected attempts %g", resp.Stats.ExpectedAttempts)
	}
}

// TestPlanTailOverflowLaw: a lognormal law whose Eq.-(11) recurrence
// overflows past the plan preview is a valid request and gets its plan,
// not 500 plan_failed.
func TestPlanTailOverflowLaw(t *testing.T) {
	body := `{"distribution": "lognormal(3,0.40315)", "cost_model": {"alpha": 1}, "strategy": "brute-force"}`
	status, _, _, b := postFE(t, New(Config{}), api.PathPlan, body, "")
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200\n%s", status, b)
	}
	var resp api.PlanResponse
	if err := json.Unmarshal(b, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Plan.Reservations) == 0 || resp.Plan.NormalizedCost < 1 {
		t.Errorf("reservations %v, normalized cost %g", resp.Plan.Reservations, resp.Plan.NormalizedCost)
	}
}

// TestCacheHitByteIdentical: a repeat request is served from the cache
// with the exact bytes of the original response, and requests that
// spell the same plan differently share the canonical key.
func TestCacheHitByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, cache, first := post(t, ts.URL+"/v1/plan", basePlanBody)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("first: status %d, X-Cache %q", status, cache)
	}
	status, cache, second := post(t, ts.URL+"/v1/plan", basePlanBody)
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("second: status %d, X-Cache %q", status, cache)
	}
	if !bytes.Equal(first, second) {
		t.Error("cache hit bytes differ from the original miss")
	}
	// Alternate spelling of the same request: shorthand law name,
	// trailing zeros, explicit defaults, reordered fields.
	alternate := `{
	  "options": {"disc_n": 200, "epsilon": 1e-7},
	  "strategy": "equal-probability",
	  "cost_model": {"alpha": 1.0, "beta": 0, "gamma": 0},
	  "distribution": "lognormal(3.0,0.50)"
	}`
	status, cache, third := post(t, ts.URL+"/v1/plan", alternate)
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("alternate spelling: status %d, X-Cache %q", status, cache)
	}
	if !bytes.Equal(first, third) {
		t.Error("alternate spelling produced different bytes")
	}
	// An omitted strategy is canonicalized to brute-force, sharing the
	// key with the explicit name.
	bf := `{"distribution": "exponential(1)", "cost_model": {"alpha": 1}, "options": {"grid_m": 150}}`
	bfExplicit := `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "strategy": "brute-force", "options": {"grid_m": 150}}`
	if status, cache, _ = post(t, ts.URL+"/v1/plan", bf); status != http.StatusOK || cache != "miss" {
		t.Fatalf("bf: status %d, X-Cache %q", status, cache)
	}
	if status, cache, _ = post(t, ts.URL+"/v1/plan", bfExplicit); status != http.StatusOK || cache != "hit" {
		t.Fatalf("bf explicit: status %d, X-Cache %q", status, cache)
	}
	if hits := s.metrics.cacheHits.Value(); hits != 3 {
		t.Errorf("cache_hits = %d, want 3", hits)
	}
}

// TestSimulateEndpoint: /v1/simulate returns the plan plus a
// deterministic Monte-Carlo evaluation, and caches by (samples, seed).
func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
	  "distribution": "gamma(2,2)",
	  "cost_model": {"alpha": 1},
	  "strategy": "mean-doubling",
	  "samples": 400,
	  "sim_seed": 9
	}`
	status, cache, first := post(t, ts.URL+"/v1/simulate", body)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d, X-Cache %q\n%s", status, cache, first)
	}
	var resp api.SimulateResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Samples != 400 || resp.SimSeed != 9 {
		t.Errorf("echo %d/%d", resp.Samples, resp.SimSeed)
	}
	if resp.NormalizedCost < 1 || resp.StdErr <= 0 {
		t.Errorf("normalized %g ± %g", resp.NormalizedCost, resp.StdErr)
	}
	d, _ := repro.Gamma(2, 2)
	p, err := repro.MakePlan(repro.ReservationOnly, d, repro.StrategyMeanDoubling, repro.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantNorm, wantErr, err := p.Simulate(400, 9)
	if err != nil {
		t.Fatal(err)
	}
	if resp.NormalizedCost != wantNorm || resp.StdErr != wantErr {
		t.Errorf("simulate %g±%g, want %g±%g", resp.NormalizedCost, resp.StdErr, wantNorm, wantErr)
	}
	if status, cache, second := post(t, ts.URL+"/v1/simulate", body); status != http.StatusOK ||
		cache != "hit" || !bytes.Equal(first, second) {
		t.Errorf("repeat: status %d, X-Cache %q, identical=%v", status, cache, bytes.Equal(first, second))
	}
	// A different evaluation seed is a different key.
	other := strings.Replace(body, `"sim_seed": 9`, `"sim_seed": 10`, 1)
	if status, cache, _ := post(t, ts.URL+"/v1/simulate", other); status != http.StatusOK || cache != "miss" {
		t.Errorf("new seed: status %d, X-Cache %q", status, cache)
	}
}

// TestSingleflightCollapsesConcurrentRequests: N identical concurrent
// requests trigger exactly one underlying computation; one is the miss
// and the other N-1 are coalesced, all byte-identical.
func TestSingleflightCollapsesConcurrentRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const n = 16
	var computations, joins atomic.Int32
	release := make(chan struct{})
	s.computeGate = func(string) {
		if computations.Add(1) == 1 {
			<-release
		}
	}
	s.flight.onJoin = func(string) { joins.Add(1) }

	body := `{"distribution": "uniform(10,20)", "cost_model": {"alpha": 1}, "options": {"grid_m": 150}}`
	type reply struct {
		status int
		cache  string
		body   string
		err    error
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(body))
			if err != nil {
				replies <- reply{err: err}
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			replies <- reply{resp.StatusCode, resp.Header.Get("X-Cache"), string(b), err}
		}()
	}
	// Every follower must have coalesced onto the gated leader before
	// we let it run; only then is "exactly one computation" meaningful.
	waitFor(t, "followers to coalesce", func() bool { return joins.Load() == n-1 })
	close(release)

	states := map[string]int{}
	bodies := map[string]bool{}
	for i := 0; i < n; i++ {
		r := <-replies
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.status != http.StatusOK {
			t.Fatalf("status %d: %s", r.status, r.body)
		}
		states[r.cache]++
		bodies[r.body] = true
	}
	if got := computations.Load(); got != 1 {
		t.Errorf("%d computations, want exactly 1", got)
	}
	if len(bodies) != 1 {
		t.Errorf("%d distinct response bodies, want 1", len(bodies))
	}
	if states["miss"] != 1 || states["coalesced"] != n-1 {
		t.Errorf("cache states %v, want miss:1 coalesced:%d", states, n-1)
	}
}

// TestRequestTimeout: a computation that outlives the request timeout
// yields a structured 504; the detached computation still populates
// the cache for later requests.
func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Limits: LimitsConfig{RequestTimeout: 20 * time.Millisecond}})
	release := make(chan struct{})
	s.computeGate = func(string) { <-release }
	body := `{"distribution": "exponential(2)", "cost_model": {"alpha": 1}, "options": {"grid_m": 150}}`
	status, _, respBody := post(t, ts.URL+"/v1/plan", body)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d\n%s", status, respBody)
	}
	if code := errorCode(t, respBody); code != "timeout" {
		t.Errorf("error code %q", code)
	}
	close(release) // the detached computation finishes and fills the cache
	waitFor(t, "detached computation to fill the cache", func() bool {
		return s.cache.Len() > 0
	})
	status, cache, _ := post(t, ts.URL+"/v1/plan", body)
	if status != http.StatusOK || cache != "hit" {
		t.Errorf("after release: status %d, X-Cache %q", status, cache)
	}
}

// TestErrorResponses: every failure mode yields the structured JSON
// error body with the right status and code.
func TestErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"malformed JSON", "POST", "/v1/plan", `{"distribution": `, 400, "bad_request"},
		{"unknown field", "POST", "/v1/plan", `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "bogus": 1}`, 400, "bad_request"},
		{"trailing data", "POST", "/v1/plan", `{"distribution": "exp(1)", "cost_model": {"alpha": 1}} {}`, 400, "bad_request"},
		{"missing distribution", "POST", "/v1/plan", `{"cost_model": {"alpha": 1}}`, 400, "bad_request"},
		{"bad spec", "POST", "/v1/plan", `{"distribution": "weird(1)", "cost_model": {"alpha": 1}}`, 400, "bad_request"},
		{"unknown strategy", "POST", "/v1/plan", `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "strategy": "nope"}`, 400, "bad_request"},
		{"invalid cost model", "POST", "/v1/plan", `{"distribution": "exp(1)", "cost_model": {"alpha": -1}}`, 400, "bad_request"},
		{"negative samples", "POST", "/v1/simulate", `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "samples": -5}`, 400, "bad_request"},
		{"GET plan", "GET", "/v1/plan", "", 405, "method_not_allowed"},
		{"PUT simulate", "PUT", "/v1/simulate", "", 405, "method_not_allowed"},
		{"POST healthz", "POST", "/healthz", "", 405, "method_not_allowed"},
		{"unknown path", "GET", "/nope", "", 404, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d\n%s", resp.StatusCode, tc.status, b)
			}
			if code := errorCode(t, b); code != tc.code {
				t.Errorf("code %q, want %q", code, tc.code)
			}
		})
	}
}

// TestHealthz: liveness probe.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(b)) != `{"status":"ok"}` {
		t.Errorf("status %d, body %q", resp.StatusCode, b)
	}
}

// TestMetricsEndpoint: /debug/vars exposes the counters, using the
// injected clock for latency, without touching the global expvar
// registry.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Now: (&fakeClock{}).Now})
	post(t, ts.URL+"/v1/plan", basePlanBody)                   // miss
	post(t, ts.URL+"/v1/plan", basePlanBody)                   // hit
	post(t, ts.URL+"/v1/plan", `{"cost_model": {"alpha": 1}}`) // bad request
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d\n%s", resp.StatusCode, b)
	}
	var vars struct {
		Requests     map[string]int64 `json:"requests"`
		Errors       map[string]int64 `json:"errors"`
		LatencyNS    map[string]int64 `json:"latency_ns"`
		CacheHits    int64            `json:"cache_hits"`
		CacheMisses  int64            `json:"cache_misses"`
		Coalesced    int64            `json:"coalesced"`
		InFlight     int64            `json:"in_flight"`
		CacheEntries int64            `json:"cache_entries"`
		WorkersAct   int64            `json:"workers_active"`
	}
	if err := json.Unmarshal(b, &vars); err != nil {
		t.Fatalf("vars are not JSON: %v\n%s", err, b)
	}
	if vars.Requests["plan"] != 3 {
		t.Errorf("requests.plan = %d", vars.Requests["plan"])
	}
	if vars.CacheHits != 1 || vars.CacheMisses != 1 {
		t.Errorf("hits/misses = %d/%d", vars.CacheHits, vars.CacheMisses)
	}
	if vars.Errors["bad_request"] != 1 {
		t.Errorf("errors.bad_request = %d", vars.Errors["bad_request"])
	}
	// The fake clock advances 1ms per reading, so each completed
	// request contributes a positive latency.
	if vars.LatencyNS["plan"] <= 0 {
		t.Errorf("latency_ns.plan = %d", vars.LatencyNS["plan"])
	}
	if vars.InFlight != 0 || vars.WorkersAct != 0 {
		t.Errorf("in_flight %d, workers_active %d", vars.InFlight, vars.WorkersAct)
	}
	if vars.CacheEntries != 1 {
		t.Errorf("cache_entries = %d", vars.CacheEntries)
	}
}

// TestCacheEviction: with a one-entry cache, a second distinct request
// evicts the first, which then recomputes as a miss.
func TestCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{Cache: CacheConfig{Responses: 1}})
	a := `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "strategy": "mean-doubling"}`
	b := `{"distribution": "exp(2)", "cost_model": {"alpha": 1}, "strategy": "mean-doubling"}`
	if _, cache, _ := post(t, ts.URL+"/v1/plan", a); cache != "miss" {
		t.Fatalf("a: X-Cache %q", cache)
	}
	if _, cache, _ := post(t, ts.URL+"/v1/plan", a); cache != "hit" {
		t.Fatalf("a repeat: X-Cache %q", cache)
	}
	if _, cache, _ := post(t, ts.URL+"/v1/plan", b); cache != "miss" {
		t.Fatalf("b: X-Cache %q", cache)
	}
	if _, cache, _ := post(t, ts.URL+"/v1/plan", a); cache != "miss" {
		t.Errorf("a after eviction: X-Cache %q, want miss", cache)
	}
}

// TestStressConcurrentMixed: 64 goroutines hammer the server with a
// mix of plan and simulate requests over a handful of keys. Every
// response must succeed, responses for one key must be byte-identical
// whether they were misses, hits, or coalesced, and — because each
// computation runs inline under the request-level semaphore — the
// internal/parallel worker gauge must never move.
func TestStressConcurrentMixed(t *testing.T) {
	parallel.ResetPeakWorkers()
	basePeak := parallel.PeakWorkers()
	s, ts := newTestServer(t, Config{Limits: LimitsConfig{WorkerBudget: 4}})

	specs := []string{"exponential(1)", "uniform(10,20)", "lognormal(3,0.5)", "gamma(2,2)"}
	strategies := []string{repro.StrategyMeanDoubling, repro.StrategyEqualProb, repro.StrategyBruteForce}
	planBody := func(spec, strat string) string {
		return fmt.Sprintf(`{"distribution": %q, "cost_model": {"alpha": 1}, "strategy": %q, "options": {"grid_m": 150, "disc_n": 100}}`,
			spec, strat)
	}
	simBody := func(spec, strat string) string {
		return fmt.Sprintf(`{"distribution": %q, "cost_model": {"alpha": 1}, "strategy": %q, "options": {"grid_m": 150, "disc_n": 100}, "samples": 200, "sim_seed": 3}`,
			spec, strat)
	}

	const goroutines = 64
	const perG = 4
	var bodiesByKey sync.Map // request body -> first response body
	var conflicts, failures atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				spec := specs[(g+i)%len(specs)]
				strat := strategies[(g/len(specs)+i)%len(strategies)]
				endpoint, body := "/v1/plan", planBody(spec, strat)
				if (g+i)%3 == 0 {
					endpoint, body = "/v1/simulate", simBody(spec, strat)
				}
				resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				b, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					failures.Add(1)
					continue
				}
				key := endpoint + body
				if prev, loaded := bodiesByKey.LoadOrStore(key, string(b)); loaded && prev.(string) != string(b) {
					conflicts.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Errorf("%d of %d requests failed", n, goroutines*perG)
	}
	if n := conflicts.Load(); n != 0 {
		t.Errorf("%d responses differed from the first response for their key", n)
	}
	if peak := parallel.PeakWorkers(); peak != basePeak {
		t.Errorf("worker-pool peak moved from %d to %d; computations must run inline", basePeak, peak)
	}
	if active := parallel.ActiveWorkers(); active != 0 {
		t.Errorf("%d workers still active", active)
	}
	if inFlight := s.metrics.inFlight.Value(); inFlight != 0 {
		t.Errorf("in_flight = %d after drain", inFlight)
	}
	// Every request either computed, coalesced, or hit: the counters
	// must account for all of them.
	total := s.metrics.cacheHits.Value() + s.metrics.cacheMisses.Value() + s.metrics.coalesced.Value()
	if want := int64(goroutines * perG); total != want {
		t.Errorf("hit+miss+coalesced = %d, want %d", total, want)
	}
}
