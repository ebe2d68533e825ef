package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/lru"
	"repro/service/api"
)

func newFlightGroup() *flightGroup {
	return &flightGroup{cache: lru.New[string, []byte](8)}
}

// await returns the bytes join answered with: the cached ones, or its
// flight's result once the flight is done.
func await(body []byte, f *flight, _ bool) ([]byte, error) {
	if f == nil {
		return body, nil
	}
	<-f.done
	return f.body, f.err
}

// TestFlightGroupSingleLeader: N concurrent callers of one key run fn
// exactly once and all observe the same bytes.
func TestFlightGroupSingleLeader(t *testing.T) {
	g := newFlightGroup()
	const n = 32
	var executions atomic.Int32
	var joins atomic.Int32
	g.onJoin = func(string) { joins.Add(1) }
	release := make(chan struct{})
	var wg sync.WaitGroup
	var sharedCount atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, f, shared := g.join("k", func() ([]byte, error) {
				executions.Add(1)
				<-release
				return []byte("payload"), nil
			})
			if body, err := await(body, f, shared); err != nil || string(body) != "payload" {
				t.Errorf("join = %q, %v", body, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Wait for every follower to have coalesced, then let the leader run.
	waitFor(t, "followers to coalesce", func() bool { return joins.Load() == n-1 })
	close(release)
	wg.Wait()
	if got := executions.Load(); got != 1 {
		t.Errorf("fn executed %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Errorf("%d shared results, want %d", got, n-1)
	}
}

// TestFlightGroupDistinctKeys: different keys do not coalesce.
func TestFlightGroupDistinctKeys(t *testing.T) {
	g := newFlightGroup()
	a, _ := await(g.join("a", func() ([]byte, error) { return []byte("A"), nil }))
	b, _ := await(g.join("b", func() ([]byte, error) { return []byte("B"), nil }))
	if string(a) != "A" || string(b) != "B" {
		t.Errorf("results %q/%q", a, b)
	}
}

// TestFlightGroupErrorPropagates: a failed computation reaches its
// caller, is not cached, and the key is forgotten afterwards.
func TestFlightGroupErrorPropagates(t *testing.T) {
	g := newFlightGroup()
	boom := errors.New("boom")
	if _, err := await(g.join("k", func() ([]byte, error) { return nil, boom })); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	// The failure was not cached: a later call runs fn again.
	body, f, shared := g.join("k", func() ([]byte, error) { return []byte("ok"), nil })
	if f == nil || shared {
		t.Fatalf("retry: flight %v, shared=%v", f, shared)
	}
	if body, err := await(body, f, shared); err != nil || string(body) != "ok" {
		t.Errorf("retry = %q, %v", body, err)
	}
}

// TestFlightGroupMissesOncePerKey: callers that keep joining a key
// until it is cached compute it once, however they interleave with the
// flight's end: a flight stores its bytes before its key is forgotten,
// and join checks the cache under the lock that finds flights.
func TestFlightGroupMissesOncePerKey(t *testing.T) {
	g := &flightGroup{cache: lru.New[string, []byte](1024)}
	const keys, callers = 500, 4
	var executions atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := strconv.Itoa(k)
				for {
					body, f, shared := g.join(key, func() ([]byte, error) {
						executions.Add(1)
						return []byte(key), nil
					})
					if f == nil {
						break
					}
					if body, err := await(body, f, shared); err != nil || string(body) != key {
						t.Errorf("join(%s) = %q, %v", key, body, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := executions.Load(); got != keys {
		t.Errorf("%d computations for %d keys", got, keys)
	}
}

// gatedFlight runs serve on n goroutines against a Backend whose first
// computation blocks until the returned release is called, and returns
// once every duplicate has joined the first request's flight. done
// receives each response; computations counts the flights computed.
func gatedFlight(t *testing.T, s *Backend, n int, serve func() *httptest.ResponseRecorder) (release func(), done <-chan *httptest.ResponseRecorder, computations *atomic.Int32) {
	t.Helper()
	var joins atomic.Int32
	computations = new(atomic.Int32)
	gate := make(chan struct{})
	s.computeGate = func(string) {
		if computations.Add(1) == 1 {
			<-gate
		}
	}
	s.flight.onJoin = func(string) { joins.Add(1) }
	out := make(chan *httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		go func() { out <- serve() }()
	}
	waitFor(t, "followers to coalesce", func() bool { return joins.Load() == int32(n-1) })
	return sync.OnceFunc(func() { close(gate) }), out, computations
}

// servePlan serves one /v1/plan request in process.
func servePlan(s *Backend) func() *httptest.ResponseRecorder {
	body := `{"distribution": "uniform(10,20)", "cost_model": {"alpha": 1}, "options": {"grid_m": 150}}`
	return func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, api.PathPlan, strings.NewReader(body)))
		return w
	}
}

// backendGoroutines counts the goroutines running Backend or
// flightGroup code: a stack dump is exact where NumGoroutine would
// also count goroutines of earlier tests that are still winding down.
func backendGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "internal/service.(*Backend)") || strings.Contains(g, "internal/service.(*flightGroup)") {
			count++
		}
	}
	return count
}

// goroutinesSettleAt waits until want goroutines run Backend code, and
// fails the test with the last count if that never happens.
func goroutinesSettleAt(t *testing.T, what string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := backendGoroutines()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines in the backend, want %d", what, got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescedRequestsShareOneGoroutine: n requests coalesced on one
// stalled computation hold n + 1 goroutines — one per request and one
// for the computation — not a second goroutine per request.
func TestCoalescedRequestsShareOneGoroutine(t *testing.T) {
	s := New(Config{})
	const n = 16
	release, done, _ := gatedFlight(t, s, n, servePlan(s))
	defer release()
	goroutinesSettleAt(t, "while coalesced", n+1)
	release()
	for i := 0; i < n; i++ {
		if w := <-done; w.Code != http.StatusOK {
			t.Fatalf("status %d\n%s", w.Code, w.Body)
		}
	}
	goroutinesSettleAt(t, "after the flight", 0)
}

// TestTimedOutRequestsLeaveOnlyTheComputation: once every request
// coalesced on a stalled computation has timed out with 504, the
// computation's goroutine is the only one left; when it finishes it
// still fills the cache.
func TestTimedOutRequestsLeaveOnlyTheComputation(t *testing.T) {
	s := New(Config{Limits: LimitsConfig{RequestTimeout: 50 * time.Millisecond}})
	const n = 16
	release, done, _ := gatedFlight(t, s, n, servePlan(s))
	defer release()
	for i := 0; i < n; i++ {
		w := <-done
		if w.Code != http.StatusGatewayTimeout || errorCode(t, w.Body.Bytes()) != api.CodeTimeout {
			t.Fatalf("status %d\n%s", w.Code, w.Body)
		}
	}
	goroutinesSettleAt(t, "after every request timed out", 1)
	release()
	waitFor(t, "the computation to fill the cache", func() bool { return s.cache.Len() == 1 })
	goroutinesSettleAt(t, "after the computation", 0)
}

// TestFailedFlightAnswersEveryWaiter: a failing computation answers
// every request coalesced on it plan_failed, and nothing is cached, so
// the next request computes again.
func TestFailedFlightAnswersEveryWaiter(t *testing.T) {
	s := New(Config{})
	const n = 8
	fail := func() ([]byte, error) { return nil, errors.New("no valid candidate") }
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		s.respond(w, httptest.NewRequest(http.MethodPost, api.PathPlan, nil), "plan|failing", fail)
		return w
	}
	release, done, computations := gatedFlight(t, s, n, serve)
	release()
	for i := 0; i < n; i++ {
		w := <-done
		if w.Code != api.Status(api.CodePlanFailed) || errorCode(t, w.Body.Bytes()) != api.CodePlanFailed {
			t.Errorf("status %d\n%s", w.Code, w.Body)
		}
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("a failed computation left %d cache entries", n)
	}
	if w := serve(); w.Code != api.Status(api.CodePlanFailed) {
		t.Errorf("retry: status %d\n%s", w.Code, w.Body)
	}
	if got := computations.Load(); got != 2 {
		t.Errorf("%d computations, want 2: the failure must not be reused", got)
	}
	s.flight.mu.Lock()
	defer s.flight.mu.Unlock()
	if len(s.flight.flights) != 0 {
		t.Errorf("%d flights still registered", len(s.flight.flights))
	}
}
