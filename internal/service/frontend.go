package service

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/lru"
	"repro/internal/shard"
	"repro/internal/tenant"
	"repro/service/api"
)

// DefaultHealthInterval is the background health-probe period when
// ShardConfig.HealthInterval is unset.
const DefaultHealthInterval = time.Second

// routeMemoCap bounds a Frontend's route memo, in entries.
const routeMemoCap = 4096

// BackendRef names one backend shard and says how to reach it: an
// in-process http.Handler (the -shards N deployment) or a base URL
// (the -peers deployment). Exactly one of Handler and URL must be set.
type BackendRef struct {
	// Name is the shard's identity on the consistent-hash ring. It
	// must be stable across the fleet: every frontend that knows the
	// same names computes the same routing.
	Name string
	// Handler serves the shard in-process, with no network hop.
	Handler http.Handler
	// URL is the shard's base URL, e.g. "http://10.0.0.7:8081".
	URL string
}

// ShardConfig tunes a Frontend's ring and health checking.
type ShardConfig struct {
	// Replicas is the virtual-node count per backend on the ring
	// (default shard.DefaultReplicas).
	Replicas int
	// HealthInterval is the background probe period for ProbeLoop
	// and the time limit of each probe (default 1s). A backend marked
	// down by a failed request or probe receives no traffic until a
	// probe sees it healthy again.
	HealthInterval time.Duration
}

// withDefaults returns c with unset fields replaced by defaults.
func (c ShardConfig) withDefaults() ShardConfig {
	if c.Replicas <= 0 {
		c.Replicas = shard.DefaultReplicas
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = DefaultHealthInterval
	}
	return c
}

// FrontendConfig tunes a Frontend.
type FrontendConfig struct {
	// Backends is the fleet, in any order (the ring sorts by hash).
	Backends []BackendRef
	// Shard tunes ring placement and health probing.
	Shard ShardConfig
	// Admission configures per-tenant fair-share admission control;
	// the zero value (Rate 0) disables it.
	Admission tenant.Config
	// Now supplies timestamps for metrics; nil selects time.Now.
	Now func() time.Time
}

// Frontend is the routing tier of the sharded plan service: a
// stateless http.Handler that admits requests under per-tenant
// fair-share quotas, routes each one to its distribution spec's home
// backend on a consistent-hash ring, and fails over to the next ring
// position when a backend errors. Responses pass through verbatim,
// with X-Shard naming the backend that served them. Construct with
// NewFrontend; safe for concurrent use.
type Frontend struct {
	cfg     FrontendConfig
	ring    *shard.Ring
	clients map[string]*client.Client
	limiter *tenant.Limiter
	mux     *http.ServeMux
	metrics *frontendMetrics

	// routes memoizes request body → canonical spec, keyed by a seeded
	// hash of the body alone. A collision can only route a request to a
	// shard other than its home, which still answers it correctly:
	// every backend canonicalizes for itself.
	routes    *lru.Cache[uint64, string]
	routeSeed maphash.Seed

	mu   sync.Mutex
	down map[string]bool
}

// NewFrontend builds a Frontend over the given backends.
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("service: frontend needs at least one backend")
	}
	cfg.Shard = cfg.Shard.withDefaults()
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Admission.Now == nil {
		cfg.Admission.Now = cfg.Now
	}
	names := make([]string, 0, len(cfg.Backends))
	clients := make(map[string]*client.Client, len(cfg.Backends))
	for _, b := range cfg.Backends {
		if b.Name == "" {
			return nil, fmt.Errorf("service: backend with empty name")
		}
		if (b.Handler == nil) == (b.URL == "") {
			return nil, fmt.Errorf("service: backend %q must set exactly one of Handler and URL", b.Name)
		}
		ccfg := client.Config{
			// The frontend does its own ring failover; per-backend
			// retries would only delay it.
			MaxRetries: -1,
		}
		if b.Handler != nil {
			ccfg.BaseURL = "http://" + b.Name
			ccfg.HTTPClient = &http.Client{Transport: client.HandlerTransport(b.Handler)}
		} else {
			ccfg.BaseURL = b.URL
		}
		c, err := client.New(ccfg)
		if err != nil {
			return nil, fmt.Errorf("service: backend %q: %w", b.Name, err)
		}
		names = append(names, b.Name)
		clients[b.Name] = c
	}
	ring, err := shard.New(names, cfg.Shard.Replicas)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	limiter, err := tenant.New(cfg.Admission)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	f := &Frontend{
		cfg:       cfg,
		ring:      ring,
		clients:   clients,
		limiter:   limiter,
		mux:       http.NewServeMux(),
		metrics:   newFrontendMetrics(),
		routes:    lru.New[uint64, string](routeMemoCap),
		routeSeed: maphash.MakeSeed(),
		down:      make(map[string]bool),
	}
	f.mux.HandleFunc(api.PathPlan, func(w http.ResponseWriter, r *http.Request) {
		f.proxy(w, r, "plan", func(ctx context.Context, c *client.Client, body []byte) (*client.Raw, error) {
			return c.PostRaw(ctx, api.PathPlan, body, r.Header.Get(api.HeaderTenant))
		})
	})
	f.mux.HandleFunc(api.PathSimulate, func(w http.ResponseWriter, r *http.Request) {
		f.proxy(w, r, "simulate", func(ctx context.Context, c *client.Client, body []byte) (*client.Raw, error) {
			return c.PostRaw(ctx, api.PathSimulate, body, r.Header.Get(api.HeaderTenant))
		})
	})
	f.mux.HandleFunc(api.PathHealthz, f.handleHealthz)
	f.mux.HandleFunc(api.PathVars, f.handleVars)
	f.mux.HandleFunc("/", f.handleNotFound)
	return f, nil
}

// ServeHTTP implements http.Handler.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// routeSpec is the one field the frontend needs from a request body
// to route it; everything else passes through opaquely.
type routeSpec struct {
	Distribution string `json:"distribution"`
}

// route returns the canonical spec body routes by: from the route memo
// when the body was routed before, otherwise by a loose decode — the
// backend enforces the strict schema; the frontend only needs the
// routing key — and CanonicalSpec. Bodies of at most memoBodyCap bytes
// that route successfully are memoized.
func (f *Frontend) route(body []byte) (string, error) {
	memoable := len(body) <= memoBodyCap
	var sum uint64
	if memoable {
		sum = maphash.Bytes(f.routeSeed, body)
		if spec, ok := f.routes.Get(sum); ok {
			f.metrics.routeMemoHits.Add(1)
			return spec, nil
		}
	}
	var req routeSpec
	if err := json.Unmarshal(body, &req); err != nil {
		return "", errors.New("invalid JSON request: " + err.Error())
	}
	spec, err := CanonicalSpec(req.Distribution)
	if err != nil {
		return "", err
	}
	if memoable {
		f.routes.Put(sum, spec)
	}
	return spec, nil
}

// proxy admits, routes, and forwards one request, failing over along
// the ring on backend errors.
func (f *Frontend) proxy(w http.ResponseWriter, r *http.Request, endpoint string,
	post func(ctx context.Context, c *client.Client, body []byte) (*client.Raw, error)) {
	f.metrics.requests.Add(endpoint, 1)
	if r.Method != http.MethodPost {
		f.fail(w, api.CodeMethodNotAllowed, "use POST")
		return
	}
	if d := f.limiter.Admit(r.Header.Get(api.HeaderTenant)); !d.OK {
		f.metrics.rejected.Add(1)
		secs := d.RetryAfter.Seconds()
		w.Header().Set("Retry-After", strconv.Itoa(int(secs)+1))
		f.metrics.errors.Add(api.CodeOverQuota, 1)
		writeErrorBody(w, api.Status(api.CodeOverQuota), api.ErrorBody{
			Code:              api.CodeOverQuota,
			Message:           "tenant over fair-share quota; retry after the indicated delay",
			RetryAfterSeconds: secs,
		})
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
	if err != nil {
		f.fail(w, api.CodeBadRequest, "reading request body: "+err.Error())
		return
	}
	spec, err := f.route(body)
	if err != nil {
		f.fail(w, api.CodeBadRequest, err.Error())
		return
	}
	// Walk the failover sequence: home shard first, then the next
	// distinct shards clockwise. Down backends are skipped up front;
	// a backend that fails mid-request is marked down and the walk
	// continues, so a dead shard costs one failed hop, not a 5xx.
	var lastErr error
	tried := 0
	for _, name := range f.ring.Sequence(spec) {
		if f.isDown(name) {
			continue
		}
		tried++
		raw, err := post(r.Context(), f.clients[name], body)
		if err != nil {
			if r.Context().Err() != nil {
				f.fail(w, api.CodeCanceled, "request canceled")
				return
			}
			f.markDown(name)
			f.metrics.failovers.Add(1)
			lastErr = fmt.Errorf("shard %s: %w", name, err)
			continue
		}
		if raw.Status == http.StatusBadGateway || raw.Status == http.StatusServiceUnavailable {
			// The backend is up but refusing; try the next shard, but
			// leave health to the prober.
			f.metrics.failovers.Add(1)
			lastErr = fmt.Errorf("shard %s: status %d", name, raw.Status)
			continue
		}
		f.metrics.routed.Add(name, 1)
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set(api.HeaderShard, name)
		if raw.Cache != "" {
			h.Set(api.HeaderCache, raw.Cache)
		}
		w.WriteHeader(raw.Status)
		_, _ = w.Write(raw.Body)
		return
	}
	msg := "no healthy backend shard"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	} else if tried == 0 {
		msg += ": all " + strconv.Itoa(len(f.clients)) + " shards marked down"
	}
	f.fail(w, api.CodeUnavailable, msg)
}

// fail writes one structured error and counts it.
func (f *Frontend) fail(w http.ResponseWriter, code, message string) {
	f.metrics.errors.Add(code, 1)
	writeErrorBody(w, api.Status(code), api.ErrorBody{Code: code, Message: message})
}

// isDown reports whether a backend is currently marked unhealthy.
func (f *Frontend) isDown(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down[name]
}

// markDown takes a backend out of rotation until a probe revives it.
func (f *Frontend) markDown(name string) {
	f.mu.Lock()
	f.down[name] = true
	f.mu.Unlock()
}

// CheckHealth probes every backend's /healthz once and updates the
// rotation: healthy backends rejoin, failing ones leave. Each probe is
// bounded by the health interval, so a peer that accepts and never
// answers is marked down instead of stalling the sweep. It returns the
// names currently down, sorted by ring membership order.
func (f *Frontend) CheckHealth(ctx context.Context) []string {
	var down []string
	for _, name := range f.ring.Nodes() {
		pctx, cancel := context.WithTimeout(ctx, f.cfg.Shard.HealthInterval)
		err := f.clients[name].Healthz(pctx)
		cancel()
		f.mu.Lock()
		f.down[name] = err != nil
		f.mu.Unlock()
		if err != nil {
			down = append(down, name)
		}
	}
	f.metrics.probes.Add(1)
	return down
}

// ProbeLoop runs CheckHealth every HealthInterval until ctx is done.
// Run it on its own goroutine.
func (f *Frontend) ProbeLoop(ctx context.Context) {
	t := time.NewTicker(f.cfg.Shard.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			f.CheckHealth(ctx)
		}
	}
}

// handleHealthz implements GET /healthz: the frontend is alive iff it
// can still route somewhere, i.e. at least one backend is in rotation.
func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f.metrics.requests.Add("healthz", 1)
	if r.Method != http.MethodGet {
		f.fail(w, api.CodeMethodNotAllowed, "use GET")
		return
	}
	f.mu.Lock()
	up := 0
	for _, name := range f.ring.Nodes() {
		if !f.down[name] {
			up++
		}
	}
	f.mu.Unlock()
	if up == 0 {
		f.fail(w, api.CodeUnavailable, "all backend shards marked down")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// handleVars implements GET /debug/vars for the frontend's own
// metrics (the backends each serve their own).
func (f *Frontend) handleVars(w http.ResponseWriter, r *http.Request) {
	f.metrics.requests.Add("vars", 1)
	if r.Method != http.MethodGet {
		f.fail(w, api.CodeMethodNotAllowed, "use GET")
		return
	}
	counts := f.limiter.Snapshot()
	admission := new(expvar.Map).Init()
	for _, c := range counts {
		name := c.Tenant
		if name == "" {
			name = "(default)"
		}
		pair := new(expvar.Map).Init()
		admitted, rejected := new(expvar.Int), new(expvar.Int)
		admitted.Set(int64(c.Admitted))
		rejected.Set(int64(c.Rejected))
		pair.Set("admitted", admitted)
		pair.Set("rejected", rejected)
		admission.Set(name, pair)
	}
	f.metrics.vars.Set("admission", admission)
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, f.metrics.vars.String())
	_, _ = io.WriteString(w, "\n")
}

// handleNotFound is the catch-all route.
func (f *Frontend) handleNotFound(w http.ResponseWriter, r *http.Request) {
	f.metrics.requests.Add("other", 1)
	f.fail(w, api.CodeNotFound,
		"unknown path "+r.URL.Path+"; endpoints are /v1/plan, /v1/simulate, /healthz, /debug/vars")
}

// frontendMetrics is the frontend's unregistered expvar state.
type frontendMetrics struct {
	vars      *expvar.Map
	requests  *expvar.Map // request count per endpoint
	errors    *expvar.Map // error count per code
	routed    *expvar.Map // proxied request count per backend shard
	failovers *expvar.Int // hops past a failed backend
	rejected  *expvar.Int // admission rejections
	probes    *expvar.Int // CheckHealth sweeps

	routeMemoHits atomic.Int64 // requests routed from the route memo
}

func newFrontendMetrics() *frontendMetrics {
	m := &frontendMetrics{
		vars:      new(expvar.Map).Init(),
		requests:  new(expvar.Map).Init(),
		errors:    new(expvar.Map).Init(),
		routed:    new(expvar.Map).Init(),
		failovers: new(expvar.Int),
		rejected:  new(expvar.Int),
		probes:    new(expvar.Int),
	}
	m.vars.Set("requests", m.requests)
	m.vars.Set("errors", m.errors)
	m.vars.Set("routed", m.routed)
	m.vars.Set("failovers", m.failovers)
	m.vars.Set("rejected", m.rejected)
	m.vars.Set("probes", m.probes)
	m.vars.Set("route_memo_hits", expvar.Func(func() any { return m.routeMemoHits.Load() }))
	return m
}
