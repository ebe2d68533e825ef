package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/client"
	"repro/internal/tenant"
	"repro/service/api"
)

// parityFleet is one killable Backend behind a Frontend with admission
// control on, reached either in process or over TCP.
type parityFleet struct {
	backend  *killableBackend
	fe, be   *client.Client // the frontend's and the backend's clients
	shutdown func()
}

// newParityFleet builds a fleet. In process, the frontend reaches the
// backend and the clients reach both through client.HandlerTransport;
// over TCP, every hop goes through an httptest.Server.
func newParityFleet(t *testing.T, tcp bool) *parityFleet {
	t.Helper()
	f := &parityFleet{backend: &killableBackend{Backend: New(Config{})}, shutdown: func() {}}
	ref := BackendRef{Name: "shard-0", Handler: f.backend}
	var beSrv *httptest.Server
	if tcp {
		beSrv = httptest.NewServer(f.backend)
		ref = BackendRef{Name: "shard-0", URL: beSrv.URL}
	}
	// A fixed clock: "flood" holds one token, which it never gets back;
	// "main" holds plenty.
	now := func() time.Time { return time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC) }
	frontend, err := NewFrontend(FrontendConfig{
		Backends: []BackendRef{ref},
		Now:      now,
		Admission: tenant.Config{
			Rate:         1e6 + 2,
			Weights:      map[string]float64{"flood": 1, "main": 1e6},
			BurstSeconds: 1,
			Now:          now,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	newClient := func(h http.Handler, srv *httptest.Server) *client.Client {
		cfg := client.Config{Tenant: "main", MaxRetries: -1}
		if srv != nil {
			cfg.BaseURL = srv.URL
		} else {
			cfg.BaseURL = "http://in-process"
			cfg.HTTPClient = &http.Client{Transport: client.HandlerTransport(h)}
		}
		c, err := client.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if tcp {
		feSrv := httptest.NewServer(frontend)
		f.fe, f.be = newClient(nil, feSrv), newClient(nil, beSrv)
		f.shutdown = func() { feSrv.Close(); beSrv.Close() }
	} else {
		f.fe, f.be = newClient(frontend, nil), newClient(f.backend, nil)
	}
	return f
}

// parityCase is one request of the parity sequence and the outcome it
// must have on both fleets.
type parityCase struct {
	name   string
	to     func(f *parityFleet) *client.Client
	path   string
	body   string
	tenant string
	kill   bool   // take the backend down first
	status int    // want: HTTP status
	code   string // want: error code, for an error status
	cache  string // want: X-Cache, for a 200
}

func toFrontend(f *parityFleet) *client.Client { return f.fe }
func toBackend(f *parityFleet) *client.Client  { return f.be }

// TestInProcessMatchesTCP: the same request sequence against two
// identical fleets, one in process and one over TCP, yields identical
// Raw values — status, body bytes, X-Cache and X-Shard — for every
// outcome the service has. Plan and simulate posts take the client's
// in-process call; the other paths go through http.Client.Do and
// HandlerTransport's RoundTrip.
func TestInProcessMatchesTCP(t *testing.T) {
	plan := planBodyFor("exponential(1)")
	simulate := `{"distribution": "exponential(1)", "cost_model": {"alpha": 1}, "strategy": "mean-doubling", "samples": 500, "sim_seed": 3}`
	badStrategy := `{"distribution": "exp(1)", "cost_model": {"alpha": 1}, "strategy": "no-such"}`
	const (
		ok       = http.StatusOK
		bad      = http.StatusBadRequest
		notFound = http.StatusNotFound
		method   = http.StatusMethodNotAllowed
	)
	cases := []parityCase{
		{name: "frontend miss", to: toFrontend, path: api.PathPlan, body: plan, status: ok, cache: "miss"},
		{name: "frontend hit", to: toFrontend, path: api.PathPlan, body: plan, status: ok, cache: "hit"},
		{name: "backend hit", to: toBackend, path: api.PathPlan, body: plan, status: ok, cache: "hit"},
		{name: "simulate miss", to: toFrontend, path: api.PathSimulate, body: simulate, status: ok, cache: "miss"},
		{name: "simulate hit", to: toFrontend, path: api.PathSimulate, body: simulate, status: ok, cache: "hit"},
		{name: "frontend bad JSON", to: toFrontend, path: api.PathPlan, body: `{"distribution": `, status: bad, code: api.CodeBadRequest},
		{name: "backend bad request", to: toFrontend, path: api.PathPlan, body: badStrategy, status: bad, code: api.CodeBadRequest},
		{name: "backend bad JSON", to: toBackend, path: api.PathPlan, body: `[1,`, status: bad, code: api.CodeBadRequest},
		{name: "frontend not found", to: toFrontend, path: "/v1/nope", body: plan, status: notFound, code: api.CodeNotFound},
		{name: "backend not found", to: toBackend, path: "/v1/nope", body: plan, status: notFound, code: api.CodeNotFound},
		{name: "frontend wrong method", to: toFrontend, path: api.PathHealthz, body: plan, status: method, code: api.CodeMethodNotAllowed},
		{name: "backend wrong method", to: toBackend, path: api.PathHealthz, body: plan, status: method, code: api.CodeMethodNotAllowed},
		{name: "flood admitted", to: toFrontend, path: api.PathPlan, body: plan, tenant: "flood", status: ok, cache: "hit"},
		{name: "flood over quota", to: toFrontend, path: api.PathPlan, body: plan, tenant: "flood", status: http.StatusTooManyRequests, code: api.CodeOverQuota},
		{name: "all shards down", to: toFrontend, path: api.PathPlan, body: plan, kill: true, status: http.StatusBadGateway, code: api.CodeUnavailable},
	}
	run := func(tcp bool) []*client.Raw {
		f := newParityFleet(t, tcp)
		defer f.shutdown()
		out := make([]*client.Raw, len(cases))
		for i, tc := range cases {
			f.backend.down.Store(tc.kill)
			raw, err := tc.to(f).PostRaw(context.Background(), tc.path, []byte(tc.body), tc.tenant)
			if err != nil {
				t.Fatalf("%s (tcp=%v): %v", tc.name, tcp, err)
			}
			out[i] = raw
		}
		return out
	}
	inProc, overTCP := run(false), run(true)

	for i, tc := range cases {
		a, b := inProc[i], overTCP[i]
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: in process %s\nover TCP %s", tc.name, describeRaw(a), describeRaw(b))
		}
		if a.Status != tc.status {
			t.Errorf("%s: status %d, want %d\n%s", tc.name, a.Status, tc.status, a.Body)
			continue
		}
		if tc.status == http.StatusOK {
			if a.Cache != tc.cache {
				t.Errorf("%s: X-Cache %q, want %q", tc.name, a.Cache, tc.cache)
			}
			continue
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(a.Body, &er); err != nil || er.Error.Code != tc.code {
			t.Errorf("%s: error body %s, want code %s", tc.name, a.Body, tc.code)
		}
		if tc.code == api.CodeOverQuota && er.Error.RetryAfterSeconds <= 0 {
			t.Errorf("%s: no retry_after_seconds in %s", tc.name, a.Body)
		}
	}
	if inProc[0].Shard != "shard-0" || inProc[2].Shard != "" {
		t.Errorf("X-Shard: frontend %q, backend %q; want shard-0 and none", inProc[0].Shard, inProc[2].Shard)
	}
}

func describeRaw(r *client.Raw) string {
	return fmt.Sprintf("{Status %d, Cache %q, Shard %q, Body %q}", r.Status, r.Cache, r.Shard, r.Body)
}
