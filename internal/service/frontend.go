package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/inproc"
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
	// Handler serves the shard in-process: the frontend calls it
	// directly with a copy of its own request and captures the
	// response, with no network hop and no client.
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
	// and the time limit of each URL backend's probe (default 1s); an
	// in-process shard is probed by a direct call. A backend marked
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
	shards  []backendShard // indexed by ring node: cfg.Backends order
	limiter *tenant.Limiter
	metrics *frontendMetrics

	// routes memoizes request body → canonical spec. A route does not
	// depend on the endpoint, so every entry is under the empty name.
	routes *bodyMemo
}

// backendShard is the frontend's state for one backend: a Handler
// shard is called directly (see inproc.Serve), a URL shard through its
// client.
type backendShard struct {
	name    string
	handler http.Handler   // set for an in-process shard
	client  *client.Client // set for a URL shard
	shard   []string       // the X-Shard header value, built once
	down    atomic.Bool    // out of rotation until a probe revives it
	routed  counter        // requests this backend answered
}

// hop sends body to s and returns its response. For an in-process
// shard the response lives in a capture, which the caller releases once
// it has read raw; for a URL shard the capture is nil.
func (s *backendShard) hop(r *http.Request, path string, body []byte, tenant string) (*client.Raw, *inproc.Capture, error) {
	if s.handler != nil {
		c := inproc.Serve(s.handler, r, body)
		return &c.Raw, c, nil
	}
	// A network transport may still be reading a request body after
	// the response arrives; the pooled buffer goes back to the pool
	// when the frontend's handler returns.
	raw, err := s.client.PostRaw(r.Context(), path, bytes.Clone(body), tenant)
	return raw, nil, err
}

// probe checks s's /healthz: an in-process shard is served a GET in a
// capture and must answer 200; a URL shard is probed through its
// client, under timeout.
func (s *backendShard) probe(ctx context.Context, timeout time.Duration) error {
	if s.handler != nil {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, api.PathHealthz, nil)
		if err != nil {
			return err
		}
		c := inproc.Serve(s.handler, req, nil)
		status := c.Status
		c.Release()
		if status != http.StatusOK {
			return fmt.Errorf("healthz returned status %d", status)
		}
		return nil
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	return s.client.Healthz(ctx)
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
	shards := make([]backendShard, len(cfg.Backends))
	for i, b := range cfg.Backends {
		if b.Name == "" {
			return nil, fmt.Errorf("service: backend with empty name")
		}
		if (b.Handler == nil) == (b.URL == "") {
			return nil, fmt.Errorf("service: backend %q must set exactly one of Handler and URL", b.Name)
		}
		shards[i] = backendShard{name: b.Name, handler: b.Handler,
			shard: []string{b.Name}, routed: counter{name: b.Name}}
		if b.URL != "" {
			c, err := client.New(client.Config{
				BaseURL: b.URL,
				// The frontend does its own ring failover; per-backend
				// retries would only delay it.
				MaxRetries: -1,
			})
			if err != nil {
				return nil, fmt.Errorf("service: backend %q: %w", b.Name, err)
			}
			shards[i].client = c
		}
		names = append(names, b.Name)
	}
	ring, err := shard.New(names, cfg.Shard.Replicas)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	limiter, err := tenant.New(cfg.Admission)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return &Frontend{
		cfg:     cfg,
		ring:    ring,
		shards:  shards,
		limiter: limiter,
		metrics: newFrontendMetrics(),
		routes:  newBodyMemo(routeMemoCap),
	}, nil
}

// ServeHTTP implements http.Handler. It serves exactly the four API
// paths; any other path, including an unclean spelling of one of them,
// gets the structured 404.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m := f.metrics
	switch r.URL.Path {
	case api.PathPlan:
		f.proxy(w, r, api.PathPlan, &m.plan)
	case api.PathSimulate:
		f.proxy(w, r, api.PathSimulate, &m.simulate)
	case api.PathHealthz:
		f.handleHealthz(w, r)
	case api.PathVars:
		f.handleVars(w, r)
	default:
		m.other.Add(1)
		f.fail(w, api.CodeNotFound, notFoundMessage(r))
	}
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
// that route successfully are memoized. A body the loose decode
// rejects gets the error a backend's strict decode of it on path gives.
func (f *Frontend) route(path string, body []byte) (string, error) {
	memoable := len(body) <= memoBodyCap
	if memoable {
		if spec, ok := f.routes.get("", body); ok {
			f.metrics.routeMemoHits.Add(1)
			return spec, nil
		}
	}
	var req routeSpec
	if err := json.Unmarshal(body, &req); err != nil {
		return "", strictDecodeError(path, body, err)
	}
	_, spec, err := CanonicalSpec(req.Distribution)
	if err != nil {
		return "", err
	}
	if memoable {
		f.routes.put("", body, spec)
	}
	return spec, nil
}

// strictDecodeError is the error a backend's strict decode of body on
// path reports. Every body the loose routing decode rejects (with
// looseErr) the strict decode rejects too; looseErr is only the
// fallback should it not.
func strictDecodeError(path string, body []byte, looseErr error) error {
	var req any = new(api.PlanRequest)
	if path == api.PathSimulate {
		req = new(api.SimulateRequest)
	}
	if aerr := decodeJSON(bytes.NewReader(body), req); aerr != nil {
		return errors.New(aerr.message)
	}
	return errors.New("invalid JSON request: " + looseErr.Error())
}

// proxy admits, routes, and forwards one request to path, failing over
// along the ring on backend errors.
func (f *Frontend) proxy(w http.ResponseWriter, r *http.Request, path string, requests *counter) {
	requests.Add(1)
	if r.Method != http.MethodPost {
		f.fail(w, api.CodeMethodNotAllowed, "use POST")
		return
	}
	tenantName := r.Header.Get(api.HeaderTenant)
	if d := f.limiter.Admit(tenantName); !d.OK {
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
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	n, err := io.ReadFull(r.Body, *buf)
	body := (*buf)[:n]
	if err == nil {
		// Longer than the pooled buffer: read the rest, bounded as a
		// backend bounds it.
		var rest []byte
		rest, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes-int64(n)))
		body = append(body[:n:n], rest...)
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		f.fail(w, api.CodeBadRequest, bodyReadError(err))
		return
	}
	spec, err := f.route(path, body)
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
	walk := f.ring.Walk(spec)
	for i, ok := walk.Next(); ok; i, ok = walk.Next() {
		s := &f.shards[i]
		if s.down.Load() {
			continue
		}
		tried++
		raw, c, err := s.hop(r, path, body, tenantName)
		if err == nil && raw.Status != http.StatusBadGateway && raw.Status != http.StatusServiceUnavailable {
			s.routed.Add(1)
			h := w.Header()
			h["Content-Type"] = jsonContentType
			h[api.HeaderShard] = s.shard
			if raw.Cache != "" {
				h[api.HeaderCache] = cacheHeader(raw.Cache)
			}
			w.WriteHeader(raw.Status)
			_, _ = w.Write(raw.Body)
			c.Release()
			return
		}
		// A 502/503 means the backend is up but refusing: try the next
		// shard, but leave health to the prober.
		refused := err == nil
		if refused {
			err = errors.New("status " + strconv.Itoa(raw.Status))
			c.Release()
		}
		if r.Context().Err() != nil {
			f.fail(w, api.CodeCanceled, "request canceled")
			return
		}
		if !refused {
			s.down.Store(true)
		}
		f.metrics.failovers.Add(1)
		lastErr = fmt.Errorf("shard %s: %w", s.name, err)
	}
	msg := "no healthy backend shard"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	} else if tried == 0 {
		msg += ": all " + strconv.Itoa(len(f.shards)) + " shards marked down"
	}
	f.fail(w, api.CodeUnavailable, msg)
}

// bodyReadError is the message for a request body that could not be
// read. A body past maxRequestBytes gets the message a backend's
// strict decoder gives it.
func bodyReadError(err error) string {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return "invalid JSON request: " + err.Error()
	}
	return "reading request body: " + err.Error()
}

// fail writes one structured error and counts it.
func (f *Frontend) fail(w http.ResponseWriter, code, message string) {
	f.metrics.errors.Add(code, 1)
	writeErrorBody(w, api.Status(code), api.ErrorBody{Code: code, Message: message})
}

// CheckHealth probes every backend's /healthz once and updates the
// rotation: healthy backends rejoin, failing ones leave. An in-process
// shard is healthy when its handler answers 200. A URL backend's probe
// is bounded by the health interval, so a peer that accepts and never
// answers is marked down instead of stalling the sweep. It returns the
// names currently down, sorted by ring membership order.
func (f *Frontend) CheckHealth(ctx context.Context) []string {
	var down []string
	for i := range f.shards {
		s := &f.shards[i]
		err := s.probe(ctx, f.cfg.Shard.HealthInterval)
		s.down.Store(err != nil)
		if err != nil {
			down = append(down, s.name)
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
	f.metrics.healthz.Add(1)
	if r.Method != http.MethodGet {
		f.fail(w, api.CodeMethodNotAllowed, "use GET")
		return
	}
	up := 0
	for i := range f.shards {
		if !f.shards[i].down.Load() {
			up++
		}
	}
	if up == 0 {
		f.fail(w, api.CodeUnavailable, "all backend shards marked down")
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// handleVars implements GET /debug/vars for the frontend's own
// metrics (the backends each serve their own).
func (f *Frontend) handleVars(w http.ResponseWriter, r *http.Request) {
	m := f.metrics
	m.debugVars.Add(1)
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
	m.vars.Set("admission", admission)
	publish(m.requests, &m.plan, &m.simulate, &m.healthz, &m.debugVars, &m.other)
	for i := range f.shards {
		publish(m.routed, &f.shards[i].routed)
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = io.WriteString(w, m.vars.String())
	_, _ = io.WriteString(w, "\n")
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

	// The requests map's entries, one per endpoint.
	plan, simulate, healthz, debugVars, other counter

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
		plan:      counter{name: "plan"},
		simulate:  counter{name: "simulate"},
		healthz:   counter{name: "healthz"},
		debugVars: counter{name: "vars"},
		other:     counter{name: "other"},
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
