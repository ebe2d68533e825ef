package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/maphash"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro"
	"repro/client"
	"repro/service/api"
)

// warmSpellings returns three bodies for one warmup request that all
// resolve to its cache key but differ byte for byte: the compact
// encoding; the law's name capitalized with spaces after commas; and an
// indented encoding naming the default strategy.
func warmSpellings(t *testing.T, req api.PlanRequest) []string {
	t.Helper()
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	spaced := req
	spaced.Distribution = strings.ToUpper(req.Distribution[:1]) + strings.ReplaceAll(req.Distribution[1:], ",", ", ")
	spacedBody, err := json.Marshal(spaced)
	if err != nil {
		t.Fatal(err)
	}
	explicit := req
	explicit.Strategy = "brute-force"
	indented, err := json.MarshalIndent(explicit, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return []string{string(compact), string(spacedBody), string(indented)}
}

// TestBodyMemoServesWarmSpellings: every spelling of every Table-1
// warmup request, sent a second time, is answered from the body memo
// with X-Cache hit and exactly the bytes of the key's first response.
func TestBodyMemoServesWarmSpellings(t *testing.T) {
	s := New(Config{})
	for _, req := range WarmupRequests() {
		var first []byte
		for i, body := range warmSpellings(t, req) {
			status, cache, _, b := postFE(t, s, api.PathPlan, body, "")
			if status != http.StatusOK {
				t.Fatalf("%s spelling %d: status %d\n%s", req.Distribution, i, status, b)
			}
			want := "hit" // the full path finds the first spelling's response
			if i == 0 {
				want = "miss"
			}
			if cache != want {
				t.Errorf("%s spelling %d: first send X-Cache %q, want %q", req.Distribution, i, cache, want)
			}
			if i == 0 {
				first = b
			}
			memoHits := s.metrics.bodyMemoHits.Load()
			status, cache, _, again := postFE(t, s, api.PathPlan, body, "")
			if status != http.StatusOK || cache != "hit" {
				t.Fatalf("%s spelling %d: repeat status %d, X-Cache %q", req.Distribution, i, status, cache)
			}
			if s.metrics.bodyMemoHits.Load() != memoHits+1 {
				t.Errorf("%s spelling %d: repeat was not served from the body memo", req.Distribution, i)
			}
			if !bytes.Equal(again, first) {
				t.Errorf("%s spelling %d: memo hit bytes differ from the first response", req.Distribution, i)
			}
		}
	}
}

// TestBodyMemoSkipsInvalidBodies: an invalid body gets the same status
// and body on every send, and is never memoized.
func TestBodyMemoSkipsInvalidBodies(t *testing.T) {
	s := New(Config{})
	cases := []struct{ name, path, body string }{
		{"unknown field", api.PathPlan, `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "bogus": 1}`},
		{"trailing data", api.PathPlan, `{"distribution": "exp(1)", "cost_model": {"alpha": 1}} {}`},
		{"malformed JSON", api.PathPlan, `{"distribution": `},
		{"empty body", api.PathPlan, ``},
		{"bad spec", api.PathPlan, `{"distribution": "weird(1)", "cost_model": {"alpha": 1}}`},
		{"bad strategy", api.PathPlan, `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "strategy": "nope"}`},
		{"bad cost model", api.PathPlan, `{"distribution": "exp(1)", "cost_model": {"alpha": -1}}`},
		{"negative samples", api.PathSimulate, `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "samples": -5}`},
	}
	for _, tc := range cases {
		status1, _, _, b1 := postFE(t, s, tc.path, tc.body, "")
		status2, _, _, b2 := postFE(t, s, tc.path, tc.body, "")
		if status1 != http.StatusBadRequest || status2 != status1 || !bytes.Equal(b1, b2) {
			t.Errorf("%s: statuses %d, %d; bodies\n%s\n%s", tc.name, status1, status2, b1, b2)
		}
	}
	if n := s.memo.entries.Len(); n != 0 {
		t.Errorf("%d invalid bodies memoized", n)
	}
}

// TestBodyMemoSizeBoundary: a body of memoBodyCap bytes is memoized; one
// byte more takes the streaming decode path on every send, and still
// hits the response cache with the same bytes.
func TestBodyMemoSizeBoundary(t *testing.T) {
	s := New(Config{})
	compact := planBodyFor("exponential(1)")
	pad := func(n int) string { return compact[:len(compact)-1] + strings.Repeat(" ", n-len(compact)) + "}" }
	_, _, _, want := postFE(t, s, api.PathPlan, compact, "")
	for _, tc := range []struct {
		size     int
		memoized bool
	}{{memoBodyCap, true}, {memoBodyCap + 1, false}, {4 * memoBodyCap, false}} {
		body := pad(tc.size)
		entries, memoHits := s.memo.entries.Len(), s.metrics.bodyMemoHits.Load()
		for i := 0; i < 2; i++ {
			status, cache, _, b := postFE(t, s, api.PathPlan, body, "")
			if status != http.StatusOK || cache != "hit" || !bytes.Equal(b, want) {
				t.Fatalf("%d-byte body, send %d: status %d, X-Cache %q\n%s", tc.size, i, status, cache, b)
			}
		}
		gotEntries, gotHits := s.memo.entries.Len()-entries, s.metrics.bodyMemoHits.Load()-memoHits
		if tc.memoized && (gotEntries != 1 || gotHits != 1) || !tc.memoized && (gotEntries != 0 || gotHits != 0) {
			t.Errorf("%d-byte body: %d new memo entries, %d memo hits; memoized = %v",
				tc.size, gotEntries, gotHits, tc.memoized)
		}
	}
}

// TestBodyMemoCollision: a memo entry found under a body's hash but
// holding other bytes — what a hash collision would produce — is a miss,
// never the other body's response.
func TestBodyMemoCollision(t *testing.T) {
	s := New(Config{})
	a, b := planBodyFor("exponential(1)"), planBodyFor("uniform(10,20)")
	_, _, _, wantA := postFE(t, s, api.PathPlan, a, "")
	postFE(t, s, api.PathPlan, b, "")
	keyB, ok := s.memo.get("plan", []byte(b))
	if !ok {
		t.Fatal("body b not memoized")
	}
	s.memo.entries.Put(memoKey{"plan", maphash.Bytes(s.memo.seed, []byte(a))}, memoEntry{body: []byte(b), key: keyB})
	status, cache, _, got := postFE(t, s, api.PathPlan, a, "")
	if status != http.StatusOK || cache != "hit" || !bytes.Equal(got, wantA) {
		t.Errorf("collided body: status %d, X-Cache %q\n%s", status, cache, got)
	}
}

// TestOverlongBodyRejected: a body past maxRequestBytes keeps its exact
// structured 400.
func TestOverlongBodyRejected(t *testing.T) {
	s := New(Config{})
	body := `{"distribution": "exp(1)",` + strings.Repeat(" ", maxRequestBytes) + `"cost_model": {"alpha": 1}}`
	for i := 0; i < 2; i++ {
		status, _, _, b := postFE(t, s, api.PathPlan, body, "")
		var e api.ErrorResponse
		if err := json.Unmarshal(b, &e); err != nil {
			t.Fatal(err)
		}
		want := api.ErrorBody{Code: api.CodeBadRequest, Message: "invalid JSON request: http: request body too large"}
		if status != http.StatusBadRequest || e.Error != want {
			t.Errorf("send %d: status %d, error %+v", i, status, e.Error)
		}
	}
}

// TestFrontendRouteMemo: a repeated body is routed from the route memo;
// a body that fails to route is not memoized.
func TestFrontendRouteMemo(t *testing.T) {
	fe, _ := newFleet(t, 2, nil)
	body := planBodyFor("exp(1)")
	for i := 0; i < 3; i++ {
		if status, _, _, b := postFE(t, fe, api.PathPlan, body, ""); status != http.StatusOK {
			t.Fatalf("status %d\n%s", status, b)
		}
	}
	if hits := fe.metrics.routeMemoHits.Load(); hits != 2 {
		t.Errorf("route_memo_hits = %d, want 2", hits)
	}
	for i := 0; i < 2; i++ {
		if status, _, _, _ := postFE(t, fe, api.PathPlan, `{"distribution": "weird(1)"}`, ""); status != http.StatusBadRequest {
			t.Errorf("bad spec: status %d", status)
		}
	}
	if n := fe.routes.Len(); n != 1 {
		t.Errorf("route memo holds %d entries, want 1", n)
	}
}

// TestFrontendRouteMemoCollision: a route-memo entry that names the
// wrong spec — what a hash collision would produce — sends the request
// to a shard other than its home, which still answers it correctly.
func TestFrontendRouteMemoCollision(t *testing.T) {
	fe, _ := newFleet(t, 4, nil)
	body := planBodyFor("exponential(1)")
	home := fe.ring.Sequence("exponential(1)")[0]
	var wrong string
	for _, spec := range []string{"uniform(10,20)", "lognormal(3,0.5)", "gamma(2,2)", "weibull(1,0.5)", "exponential(2)"} {
		if fe.ring.Sequence(spec)[0] != home {
			wrong = spec
			break
		}
	}
	if wrong == "" {
		t.Fatal("no spec homes off the exponential(1) shard")
	}
	fe.routes.Put(maphash.Bytes(fe.routeSeed, []byte(body)), wrong)
	status, _, shardName, got := postFE(t, fe, api.PathPlan, body, "")
	if status != http.StatusOK {
		t.Fatalf("status %d\n%s", status, got)
	}
	if want := fe.ring.Sequence(wrong)[0]; shardName != want {
		t.Errorf("served by %q, want the collided route's shard %q", shardName, want)
	}
	_, _, _, want := postFE(t, New(Config{}), api.PathPlan, body, "")
	if !bytes.Equal(got, want) {
		t.Errorf("collided route served different bytes:\n%s\nwant\n%s", got, want)
	}
}

// TestPlannerCacheComparesBits: the response-cache key compares cost
// model values bit for bit, so -0 — which the canonical key spells
// apart from 0 — gets its own key, while 0.0 shares 0's. Every
// request answers 200. (Alpha must be positive, so the signed zero
// rides in gamma.)
func TestPlannerCacheComparesBits(t *testing.T) {
	s := New(Config{})
	body := func(gamma string) string {
		return `{"distribution": "exp(1)", "cost_model": {"alpha": 1, "gamma": ` + gamma + `}, "strategy": "mean-doubling"}`
	}
	for _, tc := range []struct{ gamma, cache string }{{"0", "miss"}, {"-0", "miss"}, {"0.0", "hit"}} {
		if status, cache, _, b := postFE(t, s, api.PathPlan, body(tc.gamma), ""); status != http.StatusOK || cache != tc.cache {
			t.Errorf("gamma %s: status %d, X-Cache %q, want %q\n%s", tc.gamma, status, cache, tc.cache, b)
		}
	}
	if n := s.cache.Len(); n != 2 {
		t.Errorf("response cache holds %d entries, want 2", n)
	}
}

// maxHitAllocs caps the allocations of an in-process Backend cache hit
// answered from the body memo: the two header values writeBody sets,
// plus slack for a sync.Pool refill (the race detector drops pooled
// buffers at random).
const maxHitAllocs = 4

// TestBackendHitAllocs pins the allocation count of a memo hit.
func TestBackendHitAllocs(t *testing.T) {
	s := New(Config{})
	body := []byte(planBodyFor("exponential(1)"))
	req := httptest.NewRequest(http.MethodPost, api.PathPlan, nil)
	rd := &reusableBody{}
	w := &headerWriter{h: make(http.Header)}
	serve := func() {
		rd.Reset(body)
		req.Body = rd
		clear(w.h)
		s.ServeHTTP(w, req)
	}
	serve() // miss: computes and memoizes
	memoHits := s.metrics.bodyMemoHits.Load()
	allocs := testing.AllocsPerRun(200, serve)
	if got := s.metrics.bodyMemoHits.Load() - memoHits; got != 201 {
		t.Fatalf("%d of 201 runs were memo hits", got)
	}
	if allocs > maxHitAllocs {
		t.Errorf("memo hit allocates %.1f times, ceiling %d", allocs, maxHitAllocs)
	}
}

// maxFrontendHitAllocs caps the allocations of client.PostRaw through
// client.HandlerTransport to a Frontend and on to its Backend, answered
// from the backend's body memo: 20 measured (22 under the race
// detector, which drops pooled items at random), plus slack. Through http.Client.Do and an
// httptest.ResponseRecorder per hop the same request took 70, so a
// client that falls back to Do fails the pin.
const maxFrontendHitAllocs = 24

// TestFrontendHitAllocs pins the allocation count of a hit through both
// in-process hops.
func TestFrontendHitAllocs(t *testing.T) {
	be := New(Config{})
	fe, err := NewFrontend(FrontendConfig{Backends: []BackendRef{{Name: "shard-0", Handler: be}}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(client.Config{
		BaseURL:    "http://fleet",
		HTTPClient: &http.Client{Transport: client.HandlerTransport(fe)},
		MaxRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(planBodyFor("exponential(1)"))
	ctx := context.Background()
	post := func() {
		raw, err := c.PostRaw(ctx, api.PathPlan, body, "")
		if err != nil || raw.Status != http.StatusOK {
			t.Fatalf("PostRaw: %v, %+v", err, raw)
		}
	}
	post() // miss: computes and memoizes
	memoHits := be.metrics.bodyMemoHits.Load()
	allocs := testing.AllocsPerRun(200, post)
	if got := be.metrics.bodyMemoHits.Load() - memoHits; got != 201 {
		t.Fatalf("%d of 201 runs were memo hits", got)
	}
	if allocs > maxFrontendHitAllocs {
		t.Errorf("frontend hit allocates %.1f times, ceiling %d", allocs, maxFrontendHitAllocs)
	}
}

// reusableBody is a request body that can be reset between requests.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// headerWriter is an http.ResponseWriter that keeps only the headers.
type headerWriter struct{ h http.Header }

func (w *headerWriter) Header() http.Header         { return w.h }
func (w *headerWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *headerWriter) WriteHeader(int)             {}

// TestSimulateIndependentOfGOMAXPROCS: /v1/simulate evaluates inline
// (Options.Workers = 1), so its bytes do not depend on the CPU count.
func TestSimulateIndependentOfGOMAXPROCS(t *testing.T) {
	body := `{"distribution": "lognormal(3,0.5)", "cost_model": {"alpha": 1}, "strategy": "mean-doubling", "samples": 20000, "sim_seed": 7}`
	var got [][]byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		status, _, _, b := postFE(t, New(Config{}), api.PathSimulate, body, "")
		runtime.GOMAXPROCS(prev)
		if status != http.StatusOK {
			t.Fatalf("GOMAXPROCS %d: status %d\n%s", procs, status, b)
		}
		got = append(got, b)
	}
	if !bytes.Equal(got[0], got[1]) {
		t.Errorf("simulate bytes differ between GOMAXPROCS 1 and 4:\n%s\n%s", got[0], got[1])
	}
}

// TestFastPathVars: /debug/vars exports the hit-path counters.
func TestFastPathVars(t *testing.T) {
	s := New(Config{})
	body := planBodyFor("exponential(1)")
	for i := 0; i < 3; i++ {
		postFE(t, s, api.PathPlan, body, "")
	}
	postFE(t, s, api.PathPlan, planBodyFor("exp(1.0)"), "")
	type fastPathVars struct {
		BodyMemoHits    int64 `json:"body_memo_hits"`
		BodyMemoEntries int64 `json:"body_memo_entries"`
	}
	var vars fastPathVars
	if b := getVars(t, s); json.Unmarshal(b, &vars) != nil {
		t.Fatalf("vars are not JSON\n%s", b)
	}
	// Two repeats hit the memo; the new spelling is decoded, resolves
	// to the first body's key and is memoized too.
	if want := (fastPathVars{2, 2}); vars != want {
		t.Errorf("vars %+v, want %+v", vars, want)
	}
	fe, _ := newFleet(t, 1, nil)
	postFE(t, fe, api.PathPlan, body, "")
	postFE(t, fe, api.PathPlan, body, "")
	b := getVars(t, fe)
	var feVars struct {
		RouteMemoHits int64 `json:"route_memo_hits"`
	}
	if err := json.Unmarshal(b, &feVars); err != nil || feVars.RouteMemoHits != 1 {
		t.Errorf("frontend route_memo_hits = %d (%v)\n%s", feVars.RouteMemoHits, err, b)
	}

	// The DP's sub-quadratic fast path never falls back to the scan on
	// the Table-1 grid under either discretization scheme.
	for _, strat := range []string{repro.StrategyEqualTime, repro.StrategyEqualProb} {
		for _, req := range WarmupRequests() {
			req.Strategy = strat
			b, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if status, _, _, body := postFE(t, s, api.PathPlan, string(b), ""); status != http.StatusOK {
				t.Fatalf("%s %s: status %d\n%s", strat, req.Distribution, status, body)
			}
		}
	}
	var dpVars struct {
		DPFallbacks *uint64 `json:"dp_fallbacks"`
	}
	if b := getVars(t, s); json.Unmarshal(b, &dpVars) != nil || dpVars.DPFallbacks == nil || *dpVars.DPFallbacks != 0 {
		t.Errorf("dp_fallbacks missing or nonzero after the Table-1 DP grid\n%s", b)
	}
}

// getVars reads a handler's /debug/vars in process.
func getVars(t *testing.T, h http.Handler) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, api.PathVars, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/vars: status %d", rec.Code)
	}
	return rec.Body.Bytes()
}

// TestBodyReadError: a body whose read fails partway gets the decoder's
// 400 naming the read error, as it did before the body was buffered.
func TestBodyReadError(t *testing.T) {
	s := New(Config{})
	for _, head := range []string{`{"distribution": "exp(1)"`, `{"distribution": "` + strings.Repeat("x", memoBodyCap)} {
		body := io.MultiReader(strings.NewReader(head), iotest.ErrReader(errors.New("connection reset")))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, api.PathPlan, body))
		var e api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		want := api.ErrorBody{Code: api.CodeBadRequest, Message: "invalid JSON request: connection reset"}
		if rec.Code != http.StatusBadRequest || e.Error != want {
			t.Errorf("%d-byte head: status %d, error %+v", len(head), rec.Code, e.Error)
		}
	}
}
