package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/client"
	"repro/internal/rng"
	"repro/service/api"
)

// servingFleet is what checkServingInvariants drives: the transport
// the load clients send through, how the fleet is warmed, and the
// handlers whose /debug/vars hold the memo counters. newServingFleet
// wires it as deployed; the fault subtests swap one piece.
type servingFleet struct {
	transport http.RoundTripper
	warm      func(context.Context, []api.PlanRequest) error
	frontend  http.Handler   // route_memo_hits
	backends  []http.Handler // body_memo_hits, summed
}

// newServingFleet builds four in-process backends behind a frontend,
// reached through client.HandlerTransport as cmd/serve -shards wires it.
func newServingFleet(t *testing.T) servingFleet {
	t.Helper()
	f := servingFleet{}
	refs := make([]BackendRef, 4)
	for i := range refs {
		b := New(Config{})
		refs[i] = BackendRef{Name: "shard-" + strconv.Itoa(i), Handler: b}
		f.backends = append(f.backends, b)
	}
	fe, err := NewFrontend(FrontendConfig{Backends: refs})
	if err != nil {
		t.Fatal(err)
	}
	f.frontend = fe
	f.transport = client.HandlerTransport(fe)
	f.warm = func(ctx context.Context, reqs []api.PlanRequest) error {
		_, err := Warm(ctx, fe, reqs)
		return err
	}
	return f
}

// passTally counts one pass's responses by outcome.
type passTally struct {
	requests, errors, hits, misses, coalesced, noShard int
}

// drive sends bodies to /v1/plan through tr from workers concurrent
// goroutines and tallies the responses.
func drive(ctx context.Context, tr http.RoundTripper, bodies [][]byte, workers int) (passTally, error) {
	c, err := client.New(client.Config{
		BaseURL:    "http://fleet",
		HTTPClient: &http.Client{Transport: tr},
		MaxRetries: -1, // a failure is a finding, not something to retry away
	})
	if err != nil {
		return passTally{}, err
	}
	tally := passTally{requests: len(bodies)}
	var mu sync.Mutex
	next := make(chan []byte)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range next {
				raw, err := c.PostRaw(ctx, api.PathPlan, body, "")
				mu.Lock()
				switch {
				case err != nil || raw.Status != http.StatusOK:
					tally.errors++
				case raw.Cache == "hit":
					tally.hits++
				case raw.Cache == "miss":
					tally.misses++
				case raw.Cache == "coalesced":
					tally.coalesced++
				}
				if err == nil && raw.Shard == "" {
					tally.noShard++
				}
				mu.Unlock()
			}
		}()
	}
	for _, body := range bodies {
		next <- body
	}
	close(next)
	wg.Wait()
	return tally, nil
}

// check returns the first violated invariant every pass must hold.
func (p passTally) check(pass string) error {
	switch {
	case p.errors > 0:
		return fmt.Errorf("%s pass: %d of %d requests failed", pass, p.errors, p.requests)
	case p.hits+p.misses+p.coalesced != p.requests:
		return fmt.Errorf("%s pass: hits %d + misses %d + coalesced %d != %d requests",
			pass, p.hits, p.misses, p.coalesced, p.requests)
	case p.noShard > 0:
		return fmt.Errorf("%s pass: %d responses without %s", pass, p.noShard, api.HeaderShard)
	}
	return nil
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

// memoHits reads the fleet's body-memo hits (summed over the backends)
// and the frontend's route-memo hits.
func (f servingFleet) memoHits() (body, route int64, err error) {
	for _, b := range f.backends {
		n, err := counterVar(b, "body_memo_hits")
		if err != nil {
			return 0, 0, err
		}
		body += n
	}
	route, err = counterVar(f.frontend, "route_memo_hits")
	return body, route, err
}

// workers is how many concurrent clients each pass runs.
const workers = 4

// checkServingInvariants drives f with seeded concurrent traffic in two
// passes, cold then warm, and returns the first invariant that does not
// hold.
func checkServingInvariants(ctx context.Context, f servingFleet) error {
	if err := checkColdPass(ctx, f); err != nil {
		return err
	}
	return checkWarmPass(ctx, f)
}

// checkColdPass draws 400 requests over 40 lognormal laws. Every body
// must miss exactly once: ring routing pins each spec to one shard, so
// the miss count is a property of the request set, not of timing.
func checkColdPass(ctx context.Context, f servingFleet) error {
	src := rng.New(1)
	var cold [][]byte
	unique := make(map[string]bool)
	for i := 0; i < 400; i++ {
		sigma := 0.3 + 0.001*float64(src.Uint64n(40))
		body := fmt.Sprintf(`{"distribution": "lognormal(3,%s)", "cost_model": {"alpha": 1}, "strategy": "mean-doubling", "options": {"grid_m": 150, "disc_n": 100}}`,
			strconv.FormatFloat(sigma, 'g', -1, 64))
		cold = append(cold, []byte(body))
		unique[body] = true
	}
	tally, err := drive(ctx, f.transport, cold, workers)
	if err != nil {
		return err
	}
	if err := tally.check("cold"); err != nil {
		return err
	}
	if tally.misses != len(unique) {
		return fmt.Errorf("cold pass: %d misses for %d unique bodies; ring routing must pin each spec to one shard",
			tally.misses, len(unique))
	}
	return nil
}

// checkWarmPass warms the Table-1 grid and replays it: no request may
// miss, and the repeated bodies must be answered by the backends' body
// memo and the frontend's route memo, so a fast path that silently
// falls back to the full decode fails here even though it still serves
// hits.
func checkWarmPass(ctx context.Context, f servingFleet) error {
	grid := WarmupRequests()
	if err := f.warm(ctx, grid); err != nil {
		return err
	}
	var warm [][]byte
	for i := 0; i < 100; i++ {
		body, err := json.Marshal(grid[i%len(grid)])
		if err != nil {
			return err
		}
		warm = append(warm, body)
	}
	body0, route0, err := f.memoHits()
	if err != nil {
		return err
	}
	tally, err := drive(ctx, f.transport, warm, workers)
	if err != nil {
		return err
	}
	if err := tally.check("warm"); err != nil {
		return err
	}
	if tally.misses != 0 {
		return fmt.Errorf("warm pass: %d misses after warming the Table-1 grid, want 0", tally.misses)
	}
	body1, route1, err := f.memoHits()
	if err != nil {
		return err
	}
	if body1 == body0 || route1 == route0 {
		return fmt.Errorf("warm pass: %d body-memo hits on the backends, %d route-memo hits on the frontend; want both > 0",
			body1-body0, route1-route0)
	}
	return nil
}

// roundRobin is a router that ignores the ring: it deals requests to
// the backends in turn and names the serving one in X-Shard, as the
// frontend does, so only the routing invariant can catch it.
type roundRobin struct {
	backends []http.Handler
	n        atomic.Uint64
}

func (rr *roundRobin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	i := int(rr.n.Add(1) % uint64(len(rr.backends)))
	w.Header().Set(api.HeaderShard, "shard-"+strconv.Itoa(i))
	rr.backends[i].ServeHTTP(w, r)
}

// uniqueBodies makes every request body byte-unique, keeping its JSON
// meaning, by prefixing the request's serial number spelled in spaces
// and tabs. Every memo keyed on body bytes then misses.
type uniqueBodies struct {
	next http.RoundTripper
	n    atomic.Uint64
}

func (u *uniqueBodies) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	n := u.n.Add(1)
	pad := make([]byte, 64, 64+len(body))
	for i := range pad {
		pad[i] = " \t"[n>>i&1]
	}
	req = req.Clone(req.Context())
	req.Body = io.NopCloser(bytes.NewReader(append(pad, body...)))
	req.ContentLength = int64(len(pad) + len(body))
	return u.next.RoundTrip(req)
}

// TestFleetServingInvariants holds an in-process fleet to the serving
// invariants of each pass, then shows that each fault the full check is
// meant to catch breaks the named invariant.
func TestFleetServingInvariants(t *testing.T) {
	ctx := context.Background()
	passes := []struct {
		name  string
		check func(context.Context, servingFleet) error
	}{
		{"cold_misses_equal_unique_bodies", checkColdPass},
		{"warm_grid_full_hits", checkWarmPass},
	}
	for _, p := range passes {
		t.Run(p.name, func(t *testing.T) {
			if err := p.check(ctx, newServingFleet(t)); err != nil {
				t.Fatal(err)
			}
		})
	}
	faults := []struct {
		name   string
		inject func(*servingFleet)
		want   string
	}{
		{"ring_bypass", func(f *servingFleet) {
			f.transport = client.HandlerTransport(&roundRobin{backends: f.backends})
		}, "ring routing must pin"},
		{"skipped_warm_key", func(f *servingFleet) {
			warm := f.warm
			f.warm = func(ctx context.Context, reqs []api.PlanRequest) error { return warm(ctx, reqs[1:]) }
		}, "misses after warming"},
		{"bypassed_memo", func(f *servingFleet) {
			f.transport = &uniqueBodies{next: f.transport}
		}, "body-memo hits"},
	}
	for _, fc := range faults {
		t.Run(fc.name, func(t *testing.T) {
			f := newServingFleet(t)
			fc.inject(&f)
			err := checkServingInvariants(ctx, f)
			if err == nil || !strings.Contains(err.Error(), fc.want) {
				t.Fatalf("checkServingInvariants = %v, want an error containing %q", err, fc.want)
			}
			t.Log(err)
		})
	}
}
