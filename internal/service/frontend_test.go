package service

import (
	"bytes"
	"context"
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

	"repro/internal/tenant"
	"repro/service/api"
)

// killableBackend wraps a Backend so tests can take it "down": while
// down it answers everything, including /healthz, with 503.
type killableBackend struct {
	*Backend
	down atomic.Bool
}

func (k *killableBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.down.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = io.WriteString(w, `{"error":{"code":"unavailable","message":"shard killed by test"}}`)
		return
	}
	k.Backend.ServeHTTP(w, r)
}

// newFleet builds n killable in-process backends behind a frontend.
func newFleet(t *testing.T, n int, mutate func(*FrontendConfig)) (*Frontend, []*killableBackend) {
	t.Helper()
	backends := make([]*killableBackend, n)
	refs := make([]BackendRef, n)
	for i := range backends {
		backends[i] = &killableBackend{Backend: New(Config{})}
		refs[i] = BackendRef{Name: fmt.Sprintf("shard-%d", i), Handler: backends[i]}
	}
	cfg := FrontendConfig{Backends: refs}
	if mutate != nil {
		mutate(&cfg)
	}
	fe, err := NewFrontend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fe, backends
}

// postFE posts body to a frontend handler in-process and returns
// status, X-Cache, X-Shard, and body.
func postFE(t *testing.T, h http.Handler, path, body, tenantName string) (int, string, string, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if tenantName != "" {
		req.Header.Set(api.HeaderTenant, tenantName)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header.Get(api.HeaderCache), res.Header.Get(api.HeaderShard), b
}

func planBodyFor(spec string) string {
	return fmt.Sprintf(`{"distribution": %q, "cost_model": {"alpha": 1}, "strategy": "mean-doubling"}`, spec)
}

// TestFrontendRoutesByCanonicalSpec: every request lands on its spec's
// ring home, and alternate spellings of one distribution share both
// the shard and the cache entry.
func TestFrontendRoutesByCanonicalSpec(t *testing.T) {
	fe, _ := newFleet(t, 4, nil)
	specs := []string{"exponential(1)", "uniform(10,20)", "lognormal(3,0.5)", "gamma(2,2)", "weibull(1,0.5)"}
	for _, spec := range specs {
		status, cache, shardName, body := postFE(t, fe, api.PathPlan, planBodyFor(spec), "")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", spec, status, body)
		}
		if cache != "miss" {
			t.Errorf("%s: X-Cache %q, want miss", spec, cache)
		}
		canonical, err := CanonicalSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if want := fe.ring.Sequence(canonical)[0]; shardName != want {
			t.Errorf("%s: served by %q, ring home is %q", spec, shardName, want)
		}
		var resp api.PlanResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.CanonicalSpec != canonical {
			t.Errorf("%s: canonical_spec %q, want %q", spec, resp.CanonicalSpec, canonical)
		}
	}
	// "exp(1)" is a different spelling of "exponential(1)": same home
	// shard, and its canonical cache entry is already populated.
	status, cache, shardName, body := postFE(t, fe, api.PathPlan, planBodyFor("exp(1)"), "")
	if status != http.StatusOK || cache != "hit" {
		t.Errorf("alternate spelling: status %d, X-Cache %q, want 200 hit\n%s", status, cache, body)
	}
	if want := fe.ring.Sequence("exponential(1)")[0]; shardName != want {
		t.Errorf("alternate spelling routed to %q, want %q", shardName, want)
	}
}

// TestFrontendFailoverInProcess: a killed home shard answers 503; the
// frontend hops to the next ring position and the client sees 200 —
// zero 5xx through the outage, and traffic returns home after a
// health sweep revives the shard.
func TestFrontendFailoverInProcess(t *testing.T) {
	fe, backends := newFleet(t, 4, nil)
	spec := "lognormal(3,0.5)"
	seq := fe.ring.Sequence(spec)
	home := seq[0]
	var homeIdx int
	fmt.Sscanf(home, "shard-%d", &homeIdx)

	// Healthy: served by home.
	if status, _, shardName, body := postFE(t, fe, api.PathPlan, planBodyFor(spec), ""); status != 200 || shardName != home {
		t.Fatalf("healthy: status %d shard %q\n%s", status, shardName, body)
	}
	// Kill the home shard: the same request must fail over to the next
	// ring position, never surfacing a 5xx.
	backends[homeIdx].down.Store(true)
	for i := 0; i < 10; i++ {
		status, _, shardName, body := postFE(t, fe, api.PathPlan, planBodyFor(spec), "")
		if status != http.StatusOK {
			t.Fatalf("during outage: status %d\n%s", status, body)
		}
		if shardName != seq[1] {
			t.Errorf("during outage: served by %q, want first failover %q", shardName, seq[1])
		}
	}
	// Revive and sweep: traffic returns to the home shard.
	backends[homeIdx].down.Store(false)
	if down := fe.CheckHealth(context.Background()); len(down) != 0 {
		t.Fatalf("after revival CheckHealth still reports down: %v", down)
	}
	if status, _, shardName, _ := postFE(t, fe, api.PathPlan, planBodyFor(spec), ""); status != 200 || shardName != home {
		t.Errorf("after revival: status %d shard %q, want 200 %q", status, shardName, home)
	}
}

// TestCheckHealthHangingShard: a URL backend that accepts /healthz and
// never answers is marked down once its probe outlives the health
// interval; the sweep returns and the healthy shard stays up.
func TestCheckHealthHangingShard(t *testing.T) {
	up := httptest.NewServer(New(Config{}))
	t.Cleanup(up.Close)
	release := make(chan struct{})
	hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(hang.Close)
	t.Cleanup(func() { close(release) }) // runs before hang.Close
	fe, err := NewFrontend(FrontendConfig{
		Backends: []BackendRef{{Name: "up", URL: up.URL}, {Name: "hang", URL: hang.URL}},
		Shard:    ShardConfig{HealthInterval: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []string, 1)
	go func() { done <- fe.CheckHealth(context.Background()) }()
	select {
	case down := <-done:
		if len(down) != 1 || down[0] != "hang" {
			t.Errorf("CheckHealth down = %v, want [hang]", down)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("CheckHealth still blocked after 2s on a hanging /healthz")
	}
	if !fe.isDown("hang") || fe.isDown("up") {
		t.Errorf("rotation: hang down=%v, up down=%v; want true, false", fe.isDown("hang"), fe.isDown("up"))
	}
}

// TestFrontendFailoverDeadTransport: a backend whose transport errors
// outright (process killed mid-load) is marked down on first contact;
// subsequent requests skip it without retrying it, and CheckHealth
// reports it down until it returns.
func TestFrontendFailoverDeadTransport(t *testing.T) {
	// Three live in-process shards plus one URL backend whose server is
	// already closed: a dead peer.
	deadServer := httptest.NewServer(New(Config{}))
	deadURL := deadServer.URL
	deadServer.Close()

	live := make([]BackendRef, 0, 4)
	for i := 0; i < 3; i++ {
		live = append(live, BackendRef{Name: fmt.Sprintf("shard-%d", i), Handler: New(Config{})})
	}
	live = append(live, BackendRef{Name: "shard-dead", URL: deadURL})
	fe, err := NewFrontend(FrontendConfig{Backends: live})
	if err != nil {
		t.Fatal(err)
	}
	// Find a spec homed on the dead shard so the first hop fails.
	spec := ""
	for _, cand := range []string{
		"exponential(1)", "exponential(2)", "exponential(3)", "uniform(10,20)",
		"gamma(2,2)", "weibull(1,0.5)", "lognormal(3,0.5)", "pareto(1.5,3)",
		"beta(2,2)", "uniform(1,2)", "exponential(5)", "gamma(3,1)",
	} {
		if fe.ring.Sequence(cand)[0] == "shard-dead" {
			spec = cand
			break
		}
	}
	if spec == "" {
		t.Skip("no probe spec homed on the dead shard; ring placement changed")
	}
	for i := 0; i < 5; i++ {
		status, _, shardName, body := postFE(t, fe, api.PathPlan, planBodyFor(spec), "")
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d\n%s", i, status, body)
		}
		if shardName == "shard-dead" {
			t.Fatalf("request %d: served by the dead shard", i)
		}
	}
	if !fe.isDown("shard-dead") {
		t.Error("dead shard not marked down after transport failure")
	}
	down := fe.CheckHealth(context.Background())
	if len(down) != 1 || down[0] != "shard-dead" {
		t.Errorf("CheckHealth = %v, want [shard-dead]", down)
	}
}

// TestFrontendAllShardsDown: when nothing is routable the client gets
// a structured 502 unavailable, not a hang or a panic.
func TestFrontendAllShardsDown(t *testing.T) {
	fe, backends := newFleet(t, 2, nil)
	for _, b := range backends {
		b.down.Store(true)
	}
	status, _, _, body := postFE(t, fe, api.PathPlan, planBodyFor("exponential(1)"), "")
	if status != http.StatusBadGateway {
		t.Fatalf("status %d\n%s", status, body)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code != api.CodeUnavailable {
		t.Errorf("error body %s", body)
	}
}

// TestFrontendProbeLoopRevivesShard: the background prober returns a
// shard marked down to rotation once it answers /healthz again, and
// returns promptly when its context is cancelled.
func TestFrontendProbeLoopRevivesShard(t *testing.T) {
	fe, backends := newFleet(t, 2, func(cfg *FrontendConfig) {
		cfg.Shard.HealthInterval = time.Millisecond
	})
	backends[0].down.Store(true)
	if down := fe.CheckHealth(context.Background()); len(down) != 1 || down[0] != "shard-0" {
		t.Fatalf("CheckHealth = %v, want [shard-0]", down)
	}
	backends[0].down.Store(false)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		fe.ProbeLoop(ctx)
		close(done)
	}()
	waitFor(t, "the prober to revive shard-0", func() bool { return !fe.isDown("shard-0") })
	cancel()
	waitFor(t, "ProbeLoop to return after cancel", func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
}

// TestFrontendHealthz: the frontend is healthy while it can route to at
// least one shard, answers unavailable once every shard is marked down,
// and accepts only GET.
func TestFrontendHealthz(t *testing.T) {
	fe, backends := newFleet(t, 2, nil)
	get := func() (int, []byte) {
		rec := httptest.NewRecorder()
		fe.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, api.PathHealthz, nil))
		return rec.Code, rec.Body.Bytes()
	}
	backends[0].down.Store(true)
	fe.CheckHealth(context.Background())
	if status, body := get(); status != http.StatusOK {
		t.Errorf("one shard up: status %d\n%s", status, body)
	}
	backends[1].down.Store(true)
	fe.CheckHealth(context.Background())
	status, body := get()
	if status != api.Status(api.CodeUnavailable) {
		t.Errorf("all shards down: status %d, want %d\n%s", status, api.Status(api.CodeUnavailable), body)
	}
	var er api.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code != api.CodeUnavailable {
		t.Errorf("all shards down: error body %s", body)
	}
	if status, _, _, body := postFE(t, fe, api.PathHealthz, "", ""); status != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405\n%s", status, body)
	}
}

// frontendClock is a manual clock shared by the frontend and limiter.
type frontendClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *frontendClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *frontendClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestFrontendFairShareAdmission: with admission control on, a heavy
// tenant's flood is clipped to its share with structured 429s carrying
// Retry-After, while a light tenant under its share is never rejected.
func TestFrontendFairShareAdmission(t *testing.T) {
	clock := &frontendClock{t: time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)}
	fe, _ := newFleet(t, 2, func(cfg *FrontendConfig) {
		cfg.Now = clock.Now
		cfg.Admission = tenant.Config{
			Rate:         20,
			Weights:      map[string]float64{"heavy": 1, "light": 1},
			BurstSeconds: 1,
			Now:          clock.Now,
		}
	})
	// Warm one spec so admitted requests are cheap cache hits.
	body := planBodyFor("exponential(1)")
	if status, _, _, b := postFE(t, fe, api.PathPlan, body, "light"); status != 200 {
		t.Fatalf("warm: %d\n%s", status, b)
	}

	var heavyOK, heavy429, lightOK, lightRejected int
	var sawRetryAfter bool
	for step := 0; step < 200; step++ {
		// Heavy floods 10 per tick; light sends 1 every 5 ticks.
		for i := 0; i < 10; i++ {
			status, _, _, b := postFE(t, fe, api.PathPlan, body, "heavy")
			switch status {
			case http.StatusOK:
				heavyOK++
			case http.StatusTooManyRequests:
				heavy429++
				var er api.ErrorResponse
				if err := json.Unmarshal(b, &er); err != nil || er.Error.Code != api.CodeOverQuota {
					t.Fatalf("429 body not structured: %s", b)
				}
				if er.Error.RetryAfterSeconds > 0 {
					sawRetryAfter = true
				}
			default:
				t.Fatalf("heavy: status %d\n%s", status, b)
			}
		}
		if step%5 == 0 {
			if status, _, _, _ := postFE(t, fe, api.PathPlan, body, "light"); status == http.StatusOK {
				lightOK++
			} else {
				lightRejected++
			}
		}
		clock.Advance(100 * time.Millisecond)
	}
	// Σw = 3, rate 20/s → heavy's share ≈ 6.67/s over 20 s ≈ 133; the
	// flood of 2000 must be mostly rejected.
	if heavy429 < 1500 {
		t.Errorf("heavy flood: %d admitted / %d rejected; expected most of 2000 rejected", heavyOK, heavy429)
	}
	if heavyOK < 100 || heavyOK > 200 {
		t.Errorf("heavy admitted %d, want ≈133 (its fair share)", heavyOK)
	}
	// Light demands 0.5/s against a ≈6.67/s share: never rejected.
	if lightRejected != 0 {
		t.Errorf("light tenant rejected %d times despite being under its share", lightRejected)
	}
	if lightOK != 40 {
		t.Errorf("light admitted %d, want all 40", lightOK)
	}
	if !sawRetryAfter {
		t.Error("no 429 carried retry_after_seconds")
	}
}

// TestWarmupGridFullHitRatio: after Warm, every Table-1 grid request —
// in any spelling — is a cache hit on its home shard.
func TestWarmupGridFullHitRatio(t *testing.T) {
	fe, _ := newFleet(t, 4, nil)
	reqs := WarmupRequests()
	if len(reqs) != 27 {
		t.Fatalf("warmup grid has %d entries, want 9 laws x 3 models = 27", len(reqs))
	}
	warmed, err := Warm(context.Background(), fe, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if warmed != len(reqs) {
		t.Fatalf("warmed %d/%d", warmed, len(reqs))
	}
	for _, req := range reqs {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		status, cache, _, body := postFE(t, fe, api.PathPlan, string(b), "")
		if status != http.StatusOK || cache != "hit" {
			t.Errorf("%s: status %d, X-Cache %q, want warmed hit\n%s", req.Distribution, status, cache, body)
		}
	}
}

// TestWarmupResponsesByteIdenticalAcrossPaths: a response served after
// warmup equals the bytes the warmup run cached.
func TestWarmupResponsesByteIdenticalAcrossPaths(t *testing.T) {
	fe, _ := newFleet(t, 3, nil)
	req := WarmupRequests()[0]
	b, _ := json.Marshal(req)
	_, _, _, first := postFE(t, fe, api.PathPlan, string(b), "")
	if _, err := Warm(context.Background(), fe, WarmupRequests()); err != nil {
		t.Fatal(err)
	}
	_, cache, _, second := postFE(t, fe, api.PathPlan, string(b), "")
	if cache != "hit" || !bytes.Equal(first, second) {
		t.Errorf("X-Cache %q, identical=%v", cache, bytes.Equal(first, second))
	}
}

// TestNewFrontendValidates: bad fleets are rejected at construction.
func TestNewFrontendValidates(t *testing.T) {
	if _, err := NewFrontend(FrontendConfig{}); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := NewFrontend(FrontendConfig{Backends: []BackendRef{{Name: "", Handler: New(Config{})}}}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewFrontend(FrontendConfig{Backends: []BackendRef{{Name: "x"}}}); err == nil {
		t.Error("backend with neither Handler nor URL accepted")
	}
	if _, err := NewFrontend(FrontendConfig{Backends: []BackendRef{
		{Name: "x", Handler: New(Config{}), URL: "http://x"},
	}}); err == nil {
		t.Error("backend with both Handler and URL accepted")
	}
	if _, err := NewFrontend(FrontendConfig{
		Backends:  []BackendRef{{Name: "x", Handler: New(Config{})}},
		Admission: tenant.Config{Rate: 5, Weights: map[string]float64{"a": -1}},
	}); err == nil {
		t.Error("invalid admission weights accepted")
	}
}

// TestFrontendBadRequests: the frontend rejects unroutable requests
// itself with structured errors, without consuming backend capacity.
func TestFrontendBadRequests(t *testing.T) {
	fe, _ := newFleet(t, 2, nil)
	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{"distribution": `},
		{"missing distribution", `{"cost_model": {"alpha": 1}}`},
		{"unknown law", `{"distribution": "weird(1)", "cost_model": {"alpha": 1}}`},
	}
	for _, tc := range cases {
		status, _, _, body := postFE(t, fe, api.PathPlan, tc.body, "")
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d\n%s", tc.name, status, body)
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error.Code != api.CodeBadRequest {
			t.Errorf("%s: body %s", tc.name, body)
		}
	}
	// Wrong method and unknown path too.
	req := httptest.NewRequest(http.MethodGet, api.PathPlan, nil)
	rec := httptest.NewRecorder()
	fe.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET plan: %d", rec.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/nope", nil)
	rec = httptest.NewRecorder()
	fe.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown path: %d", rec.Code)
	}
}

// TestFrontendSimulateRoutes: /v1/simulate proxies like /v1/plan.
func TestFrontendSimulateRoutes(t *testing.T) {
	fe, _ := newFleet(t, 3, nil)
	body := `{"distribution": "gamma(2,2)", "cost_model": {"alpha": 1}, "strategy": "mean-doubling", "samples": 200, "sim_seed": 7}`
	status, cache, shardName, respBody := postFE(t, fe, api.PathSimulate, body, "")
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d, X-Cache %q\n%s", status, cache, respBody)
	}
	if want := fe.ring.Sequence("gamma(2,2)")[0]; shardName != want {
		t.Errorf("simulate served by %q, want %q", shardName, want)
	}
	if status, cache, _, _ := postFE(t, fe, api.PathSimulate, body, ""); status != 200 || cache != "hit" {
		t.Errorf("repeat: status %d, X-Cache %q", status, cache)
	}
}
