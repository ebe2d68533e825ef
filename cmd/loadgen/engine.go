package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/client"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/service/api"
)

// engineConfig is one load scenario, fully resolved.
type engineConfig struct {
	label string // scenario name for report entries

	// target is an external service base URL; empty builds an
	// in-process fleet of `shards` backends behind a frontend.
	target string
	shards int

	requests int
	workers  int // concurrent in-flight requests (closed-loop bound)

	// mix selects the spec stream: "zipf" draws specs Zipf-distributed
	// over a universe of distinct lognormal laws; "table1" cycles the
	// Table-1 warmup grid.
	mix      string
	universe int     // zipf: distinct specs
	zipfS    float64 // zipf: exponent (> 1 skews toward the head)

	// arrivals selects the arrival process: "closed" (workers issue
	// back to back), "poisson" (exponential inter-arrival gaps at
	// `rate`/sec), or "bursty" (bursts of `burst` with idle gaps
	// keeping the long-run `rate`).
	arrivals string
	rate     float64
	burst    int

	tenants []string // cycled per request; empty = anonymous
	seed    uint64
	warm    bool // precompute the Table-1 grid before measuring

	now   func() time.Time
	sleep func(time.Duration)
}

// withDefaults fills the unset fields of a scenario.
func (c engineConfig) withDefaults() engineConfig {
	if c.label == "" {
		c.label = c.mix
	}
	if c.shards <= 0 {
		c.shards = 1
	}
	if c.requests <= 0 {
		c.requests = 1000
	}
	if c.workers <= 0 {
		c.workers = 8
	}
	if c.mix == "" {
		c.mix = "zipf"
	}
	if c.universe <= 0 {
		c.universe = 100
	}
	if c.zipfS == 0 {
		c.zipfS = 1.1
	}
	if c.arrivals == "" {
		c.arrivals = "closed"
	}
	if c.rate <= 0 {
		c.rate = 2000
	}
	if c.burst <= 0 {
		c.burst = 32
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
	return c
}

// report is one scenario's measured outcome.
type report struct {
	Label       string         `json:"label"`
	Requests    int            `json:"requests"`
	Errors      int            `json:"errors"`
	Rejected    int            `json:"rejected"` // 429 over_quota
	Hits        int            `json:"hits"`
	Misses      int            `json:"misses"`
	Coalesced   int            `json:"coalesced"`
	UniqueSpecs int            `json:"unique_specs"`
	P50NS       float64        `json:"p50_ns"`
	P99NS       float64        `json:"p99_ns"`
	P999NS      float64        `json:"p999_ns"`
	PerShard    map[string]int `json:"per_shard,omitempty"`
	// Imbalance is the max/mean per-shard request ratio (1.0 = perfect).
	Imbalance float64 `json:"imbalance"`
	ElapsedNS float64 `json:"elapsed_ns"`
	// BodyMemoHits (summed over the backends) and RouteMemoHits (the
	// frontend's) count requests the hit-path memos answered; in-process
	// fleets only.
	BodyMemoHits  int64 `json:"body_memo_hits"`
	RouteMemoHits int64 `json:"route_memo_hits"`
}

// hitRatio is the fraction of requests served without a fresh
// computation (cache hit or coalesced onto one).
func (r report) hitRatio() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Hits+r.Coalesced) / float64(r.Requests)
}

// specStream produces the deterministic request stream: a universe of
// pre-encoded request bodies plus a sampler over it.
type specStream struct {
	bodies  []string  // the universe of distinct request bodies (JSON)
	cum     []float64 // zipf cumulative weights; nil = round-robin
	src     *rng.Source
	tenants []string
	i       int
}

// newSpecStream builds the scenario's request universe and sampler.
// The table1 mix replays the exact Table-1 warmup grid requests (nine
// laws × three cost models), so a warmed fleet serves it at a 100% hit
// ratio; the zipf mix skews draws over `universe` distinct lognormal
// laws under one cost model.
func newSpecStream(cfg engineConfig) (*specStream, error) {
	st := &specStream{src: rng.New(cfg.seed), tenants: cfg.tenants}
	switch cfg.mix {
	case "table1":
		for _, req := range service.WarmupRequests() {
			b, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			st.bodies = append(st.bodies, string(b))
		}
	case "zipf":
		for i := 0; i < cfg.universe; i++ {
			sigma := 0.3 + 0.001*float64(i)
			spec := fmt.Sprintf("lognormal(3,%s)", strconv.FormatFloat(sigma, 'g', -1, 64))
			st.bodies = append(st.bodies, string(planBody(spec)))
		}
		st.cum = make([]float64, len(st.bodies))
		total := 0.0
		for i := range st.bodies {
			total += math.Pow(float64(i+1), -cfg.zipfS)
			st.cum[i] = total
		}
	default:
		return nil, fmt.Errorf("unknown mix %q (have zipf, table1)", cfg.mix)
	}
	return st, nil
}

// next returns the request body and tenant for the next request.
func (st *specStream) next() (body, tenantName string) {
	var k int
	if st.cum == nil {
		k = st.i % len(st.bodies)
	} else {
		u := st.src.Float64() * st.cum[len(st.cum)-1]
		k = sort.SearchFloat64s(st.cum, u)
		if k >= len(st.bodies) {
			k = len(st.bodies) - 1
		}
	}
	if len(st.tenants) > 0 {
		tenantName = st.tenants[st.i%len(st.tenants)]
	}
	st.i++
	return st.bodies[k], tenantName
}

// uniqueSpecs counts the distinct request bodies a stream emitted;
// each distinct body is one cache key, so a deterministic router must
// produce exactly this many misses on a cold fleet.
func uniqueSpecs(emitted []string) int {
	seen := make(map[string]bool, len(emitted))
	for _, s := range emitted {
		seen[s] = true
	}
	return len(seen)
}

// buildTarget assembles the handler-or-URL the scenario drives and a
// fresh client for it; for an in-process fleet it also returns the
// frontend and its backends.
func buildTarget(cfg engineConfig) (*client.Client, http.Handler, []http.Handler, error) {
	ccfg := client.Config{
		// Failures are data here, not something to mask with retries.
		MaxRetries: -1,
		Seed:       cfg.seed,
	}
	if cfg.target != "" {
		ccfg.BaseURL = cfg.target
		c, err := client.New(ccfg)
		return c, nil, nil, err
	}
	refs := make([]service.BackendRef, cfg.shards)
	backends := make([]http.Handler, cfg.shards)
	for i := range refs {
		backends[i] = service.New(service.Config{})
		refs[i] = service.BackendRef{Name: "shard-" + strconv.Itoa(i), Handler: backends[i]}
	}
	fe, err := service.NewFrontend(service.FrontendConfig{Backends: refs})
	if err != nil {
		return nil, nil, nil, err
	}
	ccfg.BaseURL = "http://fleet"
	ccfg.HTTPClient = &http.Client{Transport: client.HandlerTransport(fe)}
	c, err := client.New(ccfg)
	return c, fe, backends, err
}

// counterVar reads one integer counter from a handler's /debug/vars.
func counterVar(h http.Handler, name string) (int64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, api.PathVars, nil))
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		return 0, fmt.Errorf("%s: %w", api.PathVars, err)
	}
	var n int64
	if err := json.Unmarshal(vars[name], &n); err != nil {
		return 0, fmt.Errorf("%s %s: %w", api.PathVars, name, err)
	}
	return n, nil
}

// planBody renders the request body for one spec. The small grids keep
// a single compute cheap so scenarios measure serving, not DP solving.
func planBody(spec string) []byte {
	return []byte(fmt.Sprintf(
		`{"distribution": %q, "cost_model": {"alpha": 1}, "strategy": "mean-doubling", "options": {"grid_m": 150, "disc_n": 100}}`,
		spec))
}

// runEngine executes one scenario and aggregates its report.
func runEngine(ctx context.Context, cfg engineConfig) (report, error) {
	cfg = cfg.withDefaults()
	st, err := newSpecStream(cfg)
	if err != nil {
		return report{}, err
	}
	c, handler, backends, err := buildTarget(cfg)
	if err != nil {
		return report{}, err
	}
	if cfg.warm {
		if handler == nil {
			return report{}, fmt.Errorf("-warm requires the in-process fleet (no -target)")
		}
		if _, err := service.Warm(ctx, handler, service.WarmupRequests()); err != nil {
			return report{}, err
		}
	}

	// The dispatcher samples the whole request stream up front (the
	// sampler is sequential by design — one deterministic stream), then
	// paces the sends according to the arrival process.
	type job struct {
		body, tenant string
	}
	jobs := make([]job, cfg.requests)
	emitted := make([]string, cfg.requests)
	for i := range jobs {
		body, tenantName := st.next()
		jobs[i] = job{body: body, tenant: tenantName}
		emitted[i] = body
	}
	gaps := arrivalGaps(cfg)

	var (
		mu        sync.Mutex
		latencies []time.Duration
		rep       = report{Label: cfg.label, Requests: cfg.requests, PerShard: make(map[string]int)}
	)
	ch := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < cfg.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				start := cfg.now()
				raw, err := c.PostRaw(ctx, api.PathPlan, []byte(j.body), j.tenant)
				elapsed := cfg.now().Sub(start)
				mu.Lock()
				latencies = append(latencies, elapsed)
				switch {
				case err != nil:
					rep.Errors++
				case raw.Status == http.StatusTooManyRequests:
					rep.Rejected++
				case raw.Status != http.StatusOK:
					rep.Errors++
				default:
					switch raw.Cache {
					case "hit":
						rep.Hits++
					case "miss":
						rep.Misses++
					case "coalesced":
						rep.Coalesced++
					}
					if raw.Shard != "" {
						rep.PerShard[raw.Shard]++
					}
				}
				mu.Unlock()
			}
		}()
	}
	startAll := cfg.now()
	for i, j := range jobs {
		if gaps != nil && gaps[i] > 0 {
			cfg.sleep(gaps[i])
		}
		select {
		case ch <- j:
		case <-ctx.Done():
			close(ch)
			wg.Wait()
			return rep, ctx.Err()
		}
	}
	close(ch)
	wg.Wait()
	rep.ElapsedNS = float64(cfg.now().Sub(startAll).Nanoseconds())

	rep.UniqueSpecs = uniqueSpecs(emitted)
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	rep.P50NS = quantileNS(latencies, 0.50)
	rep.P99NS = quantileNS(latencies, 0.99)
	rep.P999NS = quantileNS(latencies, 0.999)
	rep.Imbalance = imbalance(rep.PerShard)
	if handler != nil {
		if rep.RouteMemoHits, err = counterVar(handler, "route_memo_hits"); err != nil {
			return rep, err
		}
		for _, b := range backends {
			n, err := counterVar(b, "body_memo_hits")
			if err != nil {
				return rep, err
			}
			rep.BodyMemoHits += n
		}
	}
	return rep, nil
}

// arrivalGaps precomputes the pre-send pause per request; nil means a
// closed loop with no pacing.
func arrivalGaps(cfg engineConfig) []time.Duration {
	switch cfg.arrivals {
	case "closed":
		return nil
	case "poisson":
		src := rng.New(cfg.seed + 1) // independent of the spec stream
		gaps := make([]time.Duration, cfg.requests)
		for i := range gaps {
			u := src.Float64()
			if u <= 0 {
				u = math.SmallestNonzeroFloat64
			}
			gaps[i] = time.Duration(-math.Log(u) / cfg.rate * float64(time.Second))
		}
		return gaps
	case "bursty":
		// Bursts arrive back to back; the inter-burst gap restores the
		// long-run rate.
		gaps := make([]time.Duration, cfg.requests)
		gap := time.Duration(float64(cfg.burst) / cfg.rate * float64(time.Second))
		for i := range gaps {
			if i > 0 && i%cfg.burst == 0 {
				gaps[i] = gap
			}
		}
		return gaps
	default:
		return nil
	}
}

// quantileNS reads the q-quantile from sorted latencies.
func quantileNS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i].Nanoseconds())
}

// imbalance is max/mean of the per-shard request counts (1.0 when
// perfectly balanced; 0 when unsharded).
func imbalance(perShard map[string]int) float64 {
	if len(perShard) == 0 {
		return 0
	}
	total, maxCount := 0, 0
	for _, n := range perShard {
		total += n
		if n > maxCount {
			maxCount = n
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(perShard))
	return float64(maxCount) / mean
}
