// Service benchmarks live in an external test package: bench_test.go's
// package repro cannot import internal/service (which imports repro),
// but repro_test can, and `go test -bench` over the root directory
// runs both packages.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
	"repro/service/api"
)

const benchPlanBody = `{"distribution": "lognormal(3,0.5)", "cost_model": {"alpha": 1}, "strategy": "equal-probability", "options": {"disc_n": 150%s}}`

func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	ts := httptest.NewServer(service.New(service.Config{Cache: service.CacheConfig{Responses: 1 << 16}}))
	b.Cleanup(ts.Close)
	return ts
}

func postPlan(b *testing.B, url, body string) {
	b.Helper()
	resp, err := http.Post(url+"/v1/plan", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkPlanServiceCached measures a plan request served from the
// response cache (every iteration is a byte-identical hit).
func BenchmarkPlanServiceCached(b *testing.B) {
	ts := benchServer(b)
	body := fmt.Sprintf(benchPlanBody, "")
	postPlan(b, ts.URL, body) // populate the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postPlan(b, ts.URL, body)
	}
}

// BenchmarkPlanServiceCachedInProcess is BenchmarkPlanServiceCached
// without the loopback HTTP hop, so it measures the service's own hit
// path: "backend" calls Backend.ServeHTTP directly, "frontend" goes
// Frontend → Backend, the frontend calling its in-process shard's
// handler itself. Request and response writer are reused, so every
// allocation counted is the service's.
func BenchmarkPlanServiceCachedInProcess(b *testing.B) {
	be := service.New(service.Config{Cache: service.CacheConfig{Responses: 1 << 16}})
	fe, err := service.NewFrontend(service.FrontendConfig{
		Backends: []service.BackendRef{{Name: "shard-0", Handler: be}},
	})
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(fmt.Sprintf(benchPlanBody, ""))
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{{"backend", be}, {"frontend", fe}} {
		b.Run(tc.name, func(b *testing.B) {
			req := httptest.NewRequest(http.MethodPost, api.PathPlan, nil)
			rd := &readCloser{}
			w := &discardWriter{h: make(http.Header)}
			serve := func() {
				rd.Reset(body)
				req.Body = rd
				clear(w.h)
				w.status = http.StatusOK
				tc.h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("status %d", w.status)
				}
			}
			serve() // populate the caches
			if c := w.h.Get(api.HeaderCache); c != "miss" && c != "hit" {
				b.Fatalf("X-Cache %q", c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve()
			}
			if c := w.h.Get(api.HeaderCache); c != "hit" {
				b.Fatalf("X-Cache %q, want hit", c)
			}
		})
	}
}

// BenchmarkPlanServiceMissInProcess measures the plan path's fixed
// per-miss cost: every iteration posts a new lognormal(3,σ) key to
// Backend.ServeHTTP in process, so each one decodes, canonicalizes,
// plans, encodes and caches. The strategy is the cheap mean-doubling,
// so the kernel is a small share of the number; request and writer are
// reused, so every allocation counted is the service's.
func BenchmarkPlanServiceMissInProcess(b *testing.B) {
	be := service.New(service.Config{Cache: service.CacheConfig{Responses: 1 << 10}})
	req := httptest.NewRequest(http.MethodPost, api.PathPlan, nil)
	rd := &readCloser{}
	w := &discardWriter{h: make(http.Header)}
	const head, tail = `{"distribution": "lognormal(3,`, `)", "cost_model": {"alpha": 1}, "strategy": "mean-doubling"}`
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigma := 0.75 + 0.5*float64(i)/float64(b.N) // distinct for every i
		body = append(strconv.AppendFloat(append(body[:0], head...), sigma, 'g', -1, 64), tail...)
		rd.Reset(body)
		req.Body = rd
		clear(w.h)
		w.status = http.StatusOK
		be.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.h.Get(api.HeaderCache) != "miss" {
			b.Fatalf("status %d, X-Cache %q, want a miss", w.status, w.h.Get(api.HeaderCache))
		}
	}
}

// readCloser is a reusable request body.
type readCloser struct{ bytes.Reader }

func (*readCloser) Close() error { return nil }

// discardWriter is a reusable http.ResponseWriter that keeps only the
// headers and status.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }

// BenchmarkPlanServiceUncached measures a plan request that must
// compute: each iteration varies the scoring seed (part of the
// canonical key, ignored by analytic scoring), forcing a cache miss of
// constant compute cost.
func BenchmarkPlanServiceUncached(b *testing.B) {
	ts := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postPlan(b, ts.URL, fmt.Sprintf(benchPlanBody, fmt.Sprintf(`, "seed": %d`, i+1)))
	}
}
