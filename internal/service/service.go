// Package service implements the plan service: backend shards that
// compute and cache reservation plans behind a JSON API over the
// repro.Planner facade, and a sharding Frontend that routes requests
// to backends over a consistent-hash ring (see frontend.go).
//
// Backend endpoints:
//
//	POST /v1/plan      — compute a reservation plan
//	POST /v1/simulate  — compute a plan and Monte-Carlo-evaluate it
//	GET  /healthz      — liveness probe
//	GET  /debug/vars   — expvar-style JSON metrics
//
// The wire DTOs live in repro/service/api; this package implements
// them. Responses are cached in a bounded LRU keyed by a canonical
// serialization of (distribution spec, cost model, strategy, options),
// so a cache hit returns bytes identical to the miss that populated
// it. A small body that resolved before reaches its cache entry through
// a memo of the exact body bytes, skipping decode and canonicalization
// (see memo.go). Concurrent identical requests are coalesced into one
// flight (see singleflight.go): one computation runs, every duplicate
// waits for its result. The X-Cache response header reports which path
// served the request (hit, miss, or coalesced); the body never varies.
//
// Plan computations run with Options.Workers = 1: each runs on the
// one goroutine its flight starts (so every waiting handler can give
// up at its timeout), with zero goroutines spawned on the
// internal/parallel pool; parallelism comes from serving requests
// concurrently instead, bounded by a semaphore of WorkerBudget slots.
// The pool's worker gauge (workers_active / workers_peak in
// /debug/vars) therefore stays at zero no matter the request load —
// the budget is visible as the in_flight counter instead.
package service

import (
	"expvar"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dp"
	"repro/internal/lru"
	"repro/internal/parallel"
	"repro/service/api"
)

// Default configuration values, used when the corresponding config
// field is unset.
const DefaultCacheSize = 256

// maxRequestBytes bounds how much of a request body the decoder reads.
const maxRequestBytes = 1 << 20

// CacheConfig bounds a Backend's response cache.
type CacheConfig struct {
	// Responses bounds the response byte cache, in entries
	// (default 256).
	Responses int
}

// withDefaults returns c with unset fields replaced by defaults.
func (c CacheConfig) withDefaults() CacheConfig {
	if c.Responses <= 0 {
		c.Responses = DefaultCacheSize
	}
	return c
}

// LimitsConfig bounds a Backend's computation resources.
type LimitsConfig struct {
	// RequestTimeout bounds how long each request waits for its
	// computation; zero means no timeout. A request that times out
	// answers 504 and leaves; the computation keeps running on its
	// flight's goroutine and still populates the cache.
	RequestTimeout time.Duration
	// WorkerBudget caps the number of plan computations running at
	// once (default GOMAXPROCS). Each computation is single-threaded
	// (Options.Workers is forced to 1), so the budget is also a bound
	// on the CPUs the backend consumes.
	WorkerBudget int
}

// withDefaults returns c with unset fields replaced by defaults.
func (c LimitsConfig) withDefaults() LimitsConfig {
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = runtime.GOMAXPROCS(0)
	}
	return c
}

// Config tunes a Backend. The zero value is usable: unset fields take
// the documented defaults.
type Config struct {
	// Cache bounds the response cache.
	Cache CacheConfig
	// Limits bounds computation concurrency and per-request time.
	Limits LimitsConfig
	// Now supplies timestamps for the latency metrics; nil selects
	// time.Now. Tests inject a fake clock here.
	Now func() time.Time
}

// withDefaults returns cfg with every unset field defaulted.
func (c Config) withDefaults() Config {
	c.Cache = c.Cache.withDefaults()
	c.Limits = c.Limits.withDefaults()
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Backend is one plan-computing shard of the service: the HTTP handler
// that owns the response cache. Construct with New; safe
// for concurrent use. A deployment is one or more Backends behind a
// Frontend, or a single Backend serving directly.
type Backend struct {
	cfg        Config
	cache      *lru.Cache[string, []byte]
	memo       *bodyMemo
	flight     flightGroup
	sem        chan struct{}
	metrics    *metrics
	strategies map[string]bool

	plan, simulate endpoint

	// computeGate, when non-nil (tests only), is invoked with the
	// cache key at the start of every underlying computation, before
	// any work. Tests use it to count and to stall computations.
	computeGate func(key string)
}

// New builds a Backend from cfg, applying defaults for unset fields.
func New(cfg Config) *Backend {
	cfg = cfg.withDefaults()
	s := &Backend{
		cfg:        cfg,
		cache:      lru.New[string, []byte](cfg.Cache.Responses),
		memo:       newBodyMemo(cfg.Cache.Responses),
		sem:        make(chan struct{}, cfg.Limits.WorkerBudget),
		strategies: make(map[string]bool),
	}
	s.flight.cache = s.cache
	for _, name := range repro.Strategies() {
		s.strategies[name] = true
	}
	s.metrics = newMetrics(s.cache.Len, s.memo.entries.Len)
	s.plan = endpoint{requests: counter{name: "plan"}, resolve: s.resolvePlan}
	s.simulate = endpoint{requests: counter{name: "simulate"}, resolve: s.resolveSimulate}
	return s
}

// ServeHTTP implements http.Handler. It serves exactly the four API
// paths; any other path, including an unclean spelling of one of them,
// gets the structured 404.
func (s *Backend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case api.PathPlan:
		s.serve(w, r, &s.plan)
	case api.PathSimulate:
		s.serve(w, r, &s.simulate)
	case api.PathHealthz:
		s.handleHealthz(w, r)
	case api.PathVars:
		s.handleVars(w, r)
	default:
		s.metrics.other.Add(1)
		s.writeError(w, api.CodeNotFound, notFoundMessage(r))
	}
}

// notFoundMessage is the 404 message for r, shared by the Backend and
// the Frontend.
func notFoundMessage(r *http.Request) string {
	return "unknown path " + r.URL.Path + "; endpoints are /v1/plan, /v1/simulate, /healthz, /debug/vars"
}

func (s *Backend) now() time.Time { return s.cfg.Now() }

// acquire takes one of the WorkerBudget computation slots.
func (s *Backend) acquire() { s.sem <- struct{}{} }

// release returns a computation slot.
func (s *Backend) release() { <-s.sem }

// handleHealthz implements GET /healthz.
func (s *Backend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.metrics.healthz.Add(1)
	if r.Method != http.MethodGet {
		s.writeError(w, api.CodeMethodNotAllowed, "use GET")
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// handleVars implements GET /debug/vars. The metrics live in an
// unregistered expvar.Map so that many Backends — e.g. in tests or an
// in-process fleet — can coexist in one process without colliding in
// the global expvar registry; expvar's own handler is therefore not
// used.
func (s *Backend) handleVars(w http.ResponseWriter, r *http.Request) {
	m := s.metrics
	m.debugVars.Add(1)
	if r.Method != http.MethodGet {
		s.writeError(w, api.CodeMethodNotAllowed, "use GET")
		return
	}
	publish(m.requests, &s.plan.requests, &s.simulate.requests, &m.healthz, &m.debugVars, &m.other)
	for _, e := range []*endpoint{&s.plan, &s.simulate} {
		if e.requests.Value() != 0 {
			m.latencyNS.Set(e.requests.name, &e.latencyNS)
		}
	}
	w.Header()["Content-Type"] = jsonContentType
	_, _ = io.WriteString(w, m.vars.String())
	_, _ = io.WriteString(w, "\n")
}

// endpoint is one POST endpoint of a Backend: how it resolves a body,
// and its entries in /debug/vars. The name of its requests counter
// also keys its body-memo entries.
type endpoint struct {
	requests  counter
	latencyNS expvar.Int // cumulative handler nanoseconds
	resolve   func(body io.Reader) (*resolved, *apiError)
}

// counter is one entry of a /debug/vars map whose key is known up
// front. A handler adds to the expvar.Int it holds: one atomic add, no
// map lookup and no key conversion. publish enters the entry in its
// map just before the map is printed, once it has counted something,
// so the map lists the same keys with the same values as if every
// count had gone through expvar.Map.Add.
type counter struct {
	expvar.Int
	name string
}

// publish enters each counter that has counted into m.
func publish(m *expvar.Map, cs ...*counter) {
	for _, c := range cs {
		if c.Value() != 0 {
			m.Set(c.name, &c.Int)
		}
	}
}

// Response header values, built once: handlers assign them to the
// header map instead of allocating a value per response through
// Header.Set. Nothing modifies a header value in place, and each has
// len == cap, so an Add copies it first.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
	cacheMiss       = []string{"miss"}
	cacheCoalesced  = []string{"coalesced"}
)

// cacheHeader returns the X-Cache header value for state.
func cacheHeader(state string) []string {
	switch state {
	case "hit":
		return cacheHit
	case "miss":
		return cacheMiss
	case "coalesced":
		return cacheCoalesced
	}
	return []string{state}
}

// metrics is the per-backend expvar state. The map is deliberately NOT
// published to the global expvar registry (Publish panics on duplicate
// names, and each Backend owns its own counters).
type metrics struct {
	vars        *expvar.Map
	requests    *expvar.Map // request count per endpoint
	errors      *expvar.Map // error count per code
	latencyNS   *expvar.Map // cumulative handler nanoseconds per endpoint
	cacheHits   *expvar.Int
	cacheMisses *expvar.Int
	coalesced   *expvar.Int // requests served by joining another's computation
	inFlight    *expvar.Int

	// The requests map's entries for the endpoints other than the POST
	// ones, which the Backend's endpoints hold.
	healthz, debugVars, other counter

	bodyMemoHits atomic.Int64 // hits answered from the body memo
}

func newMetrics(cacheLen, memoLen func() int) *metrics {
	m := &metrics{
		vars:        new(expvar.Map).Init(),
		requests:    new(expvar.Map).Init(),
		errors:      new(expvar.Map).Init(),
		latencyNS:   new(expvar.Map).Init(),
		cacheHits:   new(expvar.Int),
		cacheMisses: new(expvar.Int),
		coalesced:   new(expvar.Int),
		inFlight:    new(expvar.Int),
		healthz:     counter{name: "healthz"},
		debugVars:   counter{name: "vars"},
		other:       counter{name: "other"},
	}
	m.vars.Set("requests", m.requests)
	m.vars.Set("errors", m.errors)
	m.vars.Set("latency_ns", m.latencyNS)
	m.vars.Set("cache_hits", m.cacheHits)
	m.vars.Set("cache_misses", m.cacheMisses)
	m.vars.Set("coalesced", m.coalesced)
	m.vars.Set("in_flight", m.inFlight)
	m.vars.Set("cache_entries", expvar.Func(func() any { return cacheLen() }))
	m.vars.Set("body_memo_hits", expvar.Func(func() any { return m.bodyMemoHits.Load() }))
	m.vars.Set("body_memo_entries", expvar.Func(func() any { return memoLen() }))
	// Process-wide, like the worker gauges: every backend in the process
	// reports the same count of DP fast-path solves abandoned to the scan.
	m.vars.Set("dp_fallbacks", expvar.Func(func() any { return dp.Fallbacks() }))
	m.vars.Set("workers_active", expvar.Func(func() any { return parallel.ActiveWorkers() }))
	m.vars.Set("workers_peak", expvar.Func(func() any { return parallel.PeakWorkers() }))
	return m
}
