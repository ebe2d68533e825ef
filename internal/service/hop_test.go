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
	"testing"
	"time"

	"repro/internal/inproc"
	"repro/service/api"
)

// singleShard builds a frontend over one in-process shard served by h.
func singleShard(t *testing.T, h http.Handler) *Frontend {
	t.Helper()
	fe, err := NewFrontend(FrontendConfig{Backends: []BackendRef{{Name: "shard-0", Handler: h}}})
	if err != nil {
		t.Fatal(err)
	}
	return fe
}

// refusingHandler answers every request with one status, as a backend
// that is up but refusing work does.
type refusingHandler int

func (h refusingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(int(h))
	_, _ = io.WriteString(w, `{"error":{"code":"unavailable","message":"refused by test"}}`)
}

// TestInProcessRefusalFailsOver: an in-process home shard that answers
// 503 or 502 passes the request on to the next ring position before
// anything reaches the caller. Each refusal counts one failover, and
// the refusing shard stays in rotation: its health is the prober's
// call.
func TestInProcessRefusalFailsOver(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, http.StatusBadGateway} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			const spec = "lognormal(3,0.5)"
			probe, _ := newFleet(t, 3, nil)
			seq := failoverOrder(probe, spec)
			refs := make([]BackendRef, 3)
			for i := range refs {
				name := fmt.Sprintf("shard-%d", i)
				var h http.Handler = New(Config{})
				if name == seq[0] {
					h = refusingHandler(status)
				}
				refs[i] = BackendRef{Name: name, Handler: h}
			}
			fe, err := NewFrontend(FrontendConfig{Backends: refs})
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, want := postFE(t, New(Config{}), api.PathPlan, planBodyFor(spec), "")
			for i := 1; i <= 3; i++ {
				got, cache, shardName, body := postFE(t, fe, api.PathPlan, planBodyFor(spec), "")
				if got != http.StatusOK || shardName != seq[1] {
					t.Fatalf("request %d: status %d from %q, want 200 from %q\n%s", i, got, shardName, seq[1], body)
				}
				if !bytes.Equal(body, want) {
					t.Errorf("request %d: body\n%s\nwant\n%s", i, body, want)
				}
				if wantCache := map[bool]string{true: "miss", false: "hit"}[i == 1]; cache != wantCache {
					t.Errorf("request %d: X-Cache %q, want %q", i, cache, wantCache)
				}
				if n := fe.metrics.failovers.Value(); n != int64(i) {
					t.Errorf("after request %d: failovers = %d, want %d", i, n, i)
				}
			}
			if fe.isDown(seq[0]) {
				t.Errorf("refusing shard %s marked down; only a probe should decide that", seq[0])
			}
		})
	}
}

// TestCaptureBodyTruncated: a capture keeps at most
// inproc.MaxResponseBytes of a body, so an in-process shard and a URL
// shard (whose client reads that much) hand the caller the same bytes.
func TestCaptureBodyTruncated(t *testing.T) {
	big := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, strings.Repeat("a", inproc.MaxResponseBytes-5))
		_, _ = io.WriteString(w, strings.Repeat("b", 20))
	})
	srv := httptest.NewServer(big)
	defer srv.Close()
	overURL, err := NewFrontend(FrontendConfig{Backends: []BackendRef{{Name: "shard-0", URL: srv.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, want := postFE(t, overURL, api.PathPlan, planBodyFor("exponential(1)"), "")
	_, _, _, got := postFE(t, singleShard(t, big), api.PathPlan, planBodyFor("exponential(1)"), "")
	if len(want) != inproc.MaxResponseBytes || !bytes.Equal(got, want) {
		t.Errorf("in process %d bytes, over a URL %d bytes; want the same %d", len(got), len(want), inproc.MaxResponseBytes)
	}
}

// TestCaptureDropsLateXCache: the frontend forwards the X-Cache its
// capture read when the response was committed, at the first
// WriteHeader or Write. A value set afterwards never reaches the
// caller, as over TCP.
func TestCaptureDropsLateXCache(t *testing.T) {
	for _, tc := range []struct {
		name  string
		serve func(w http.ResponseWriter)
		want  string
	}{
		{"set before WriteHeader, changed after", func(w http.ResponseWriter) {
			w.Header().Set(api.HeaderCache, "hit")
			w.WriteHeader(http.StatusOK)
			w.Header().Set(api.HeaderCache, "late")
			_, _ = io.WriteString(w, "{}\n")
		}, "hit"},
		{"set before Write, changed after", func(w http.ResponseWriter) {
			w.Header().Set(api.HeaderCache, "miss")
			_, _ = io.WriteString(w, "{}\n")
			w.Header().Set(api.HeaderCache, "late")
		}, "miss"},
		{"set only after Write", func(w http.ResponseWriter) {
			_, _ = io.WriteString(w, "{}\n")
			w.Header().Set(api.HeaderCache, "late")
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fe := singleShard(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { tc.serve(w) }))
			status, cache, _, body := postFE(t, fe, api.PathPlan, planBodyFor("exponential(1)"), "")
			if status != http.StatusOK || cache != tc.want {
				t.Errorf("status %d, X-Cache %q, want 200 and %q\n%s", status, cache, tc.want, body)
			}
		})
	}
}

// ctxMarker keys the context value TestInProcessHopCarriesCallerContext
// looks for on the backend's side of the hop.
type ctxMarker struct{}

// TestInProcessHopCarriesCallerContext: the request an in-process
// shard serves carries the caller's context, so a caller that has gone
// away gets canceled on a miss — from its home shard, without a
// failover to the next one — and no other shard is asked.
func TestInProcessHopCarriesCallerContext(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var mu sync.Mutex
	var seen []any
	refs := make([]BackendRef, 2)
	for i := range refs {
		be := New(Config{Limits: LimitsConfig{RequestTimeout: 5 * time.Second}})
		be.computeGate = func(string) { <-release }
		refs[i] = BackendRef{Name: fmt.Sprintf("shard-%d", i), Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.Context().Value(ctxMarker{}))
			mu.Unlock()
			be.ServeHTTP(w, r)
		})}
	}
	fe, err := NewFrontend(FrontendConfig{Backends: refs})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.WithValue(context.Background(), ctxMarker{}, "caller"))
	cancel()
	req := httptest.NewRequest(http.MethodPost, api.PathPlan, strings.NewReader(planBodyFor("exponential(1)"))).WithContext(ctx)
	rec := httptest.NewRecorder()
	fe.ServeHTTP(rec, req)
	var er api.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != api.Status(api.CodeCanceled) || er.Error.Code != api.CodeCanceled {
		t.Errorf("status %d, body %s; want %d %s", rec.Code, rec.Body.Bytes(), api.Status(api.CodeCanceled), api.CodeCanceled)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 1 || seen[0] != "caller" {
		t.Errorf("backends saw context values %v, want one request carrying \"caller\"", seen)
	}
	if n := fe.metrics.failovers.Value(); n != 0 {
		t.Errorf("failovers = %d, want 0: a canceled caller is not a shard failure", n)
	}
}

// TestInProcessHopConcurrentBodies: four goroutines, each posting its
// own key through a four-shard in-process fleet, always get their own
// key's bytes. A capture or request copy that is reused while a hop
// still reads it hands one caller another's body; under the race
// detector (check.sh's flight step) a capture released before its
// body is written out is reported as a race as well.
func TestInProcessHopConcurrentBodies(t *testing.T) {
	fe, _ := newFleet(t, 4, nil)
	specs := []string{"exponential(1)", "uniform(10,20)", "lognormal(3,0.5)", "gamma(2,2)", "weibull(1,0.5)", "exponential(3)"}
	want := make([][]byte, len(specs))
	for i, spec := range specs {
		status, _, _, body := postFE(t, fe, api.PathPlan, planBodyFor(spec), "")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", spec, status, body)
		}
		want[i] = body
	}
	const workers, rounds = 4, 200
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < rounds; n++ {
				i := (g + n) % len(specs)
				req := httptest.NewRequest(http.MethodPost, api.PathPlan, strings.NewReader(planBodyFor(specs[i])))
				rec := httptest.NewRecorder()
				fe.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
					errs <- fmt.Errorf("worker %d round %d (%s): status %d, body\n%s\nwant\n%s", g, n, specs[i], rec.Code, rec.Body.Bytes(), want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
