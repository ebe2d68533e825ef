package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/inproc"
	"repro/service/api"
)

// postAllWays posts body to h's /v1/plan three ways — the in-process
// call, http.Client.Do over HandlerTransport, and TCP through an
// httptest.Server — requires all three to return the same Raw, and
// returns it.
func postAllWays(t *testing.T, h http.Handler, body []byte) *Raw {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	var first *Raw
	for _, way := range []struct {
		name string
		cfg  Config
	}{
		{"in process", Config{BaseURL: "http://fleet", HTTPClient: &http.Client{Transport: HandlerTransport(h)}}},
		{"Do", Config{BaseURL: "http://fleet", HTTPClient: &http.Client{Transport: HandlerTransport(h), Timeout: time.Minute}}},
		{"TCP", Config{BaseURL: srv.URL}},
	} {
		way.cfg.MaxRetries = -1
		c, err := New(way.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if inProc := c.handler != nil; inProc != (way.name == "in process") {
			t.Fatalf("%s: in-process call taken = %v", way.name, inProc)
		}
		raw, err := c.PostRaw(context.Background(), api.PathPlan, body, "")
		if err != nil {
			t.Fatalf("%s: %v", way.name, err)
		}
		if first == nil {
			first = raw
		} else if !reflect.DeepEqual(raw, first) {
			t.Errorf("%s: Raw{%d %q %q, %d body bytes}, in process Raw{%d %q %q, %d body bytes}",
				way.name, raw.Status, raw.Cache, raw.Shard, len(raw.Body),
				first.Status, first.Cache, first.Shard, len(first.Body))
		}
	}
	return first
}

// TestInProcessSilentHandler: a handler that writes nothing answers 200
// with an empty body.
func TestInProcessSilentHandler(t *testing.T) {
	raw := postAllWays(t, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), []byte("{}"))
	if raw.Status != http.StatusOK || raw.Body == nil || len(raw.Body) != 0 || raw.Cache != "" || raw.Shard != "" {
		t.Errorf("raw = %+v, want 200 and an empty body", raw)
	}
}

// TestInProcessHeadersAfterWriteIgnored: serving headers set after the
// response is committed are not reported, as over TCP.
func TestInProcessHeadersAfterWriteIgnored(t *testing.T) {
	raw := postAllWays(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(api.HeaderShard, "shard-1")
		_, _ = io.WriteString(w, "{}")
		w.Header().Set(api.HeaderCache, "hit")
		w.Header().Set(api.HeaderShard, "shard-2")
		w.WriteHeader(http.StatusTeapot)
	}), []byte("{}"))
	if raw.Status != http.StatusOK || raw.Cache != "" || raw.Shard != "shard-1" || string(raw.Body) != "{}" {
		t.Errorf("raw = %+v, want 200, no X-Cache, X-Shard shard-1", raw)
	}
}

// TestInProcessBodyTruncated: a body longer than
// inproc.MaxResponseBytes is cut there, as the TCP path reads it.
func TestInProcessBodyTruncated(t *testing.T) {
	chunk := bytes.Repeat([]byte("x"), 1<<20)
	raw := postAllWays(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		for i := 0; i < inproc.MaxResponseBytes/len(chunk)+2; i++ {
			_, _ = w.Write(chunk)
		}
	}), []byte("{}"))
	if len(raw.Body) != inproc.MaxResponseBytes {
		t.Errorf("body %d bytes, want %d", len(raw.Body), inproc.MaxResponseBytes)
	}
}

// TestInProcessWriterReuseLeaksNothing: the pooled capture the client
// serves into carries no header, status or body into the next
// request, and a returned Raw does not share the capture's memory.
func TestInProcessWriterReuseLeaksNothing(t *testing.T) {
	calls := 0
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls%2 == 1 {
			w.Header().Set(api.HeaderCache, "hit")
			w.Header().Set(api.HeaderShard, "shard-1")
			w.WriteHeader(http.StatusAccepted)
			_, _ = io.WriteString(w, "first response, longer than the second")
			return
		}
		_, _ = io.WriteString(w, "second")
	})
	c, _ := newTestClient(t, h, Config{})
	for i := 0; i < 10; i++ {
		a, err := c.PostRaw(context.Background(), api.PathPlan, []byte("{}"), "")
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.PostRaw(context.Background(), api.PathPlan, []byte("{}"), "")
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != http.StatusAccepted || a.Cache != "hit" || a.Shard != "shard-1" ||
			string(a.Body) != "first response, longer than the second" {
			t.Fatalf("first response %+v, body %q", a, a.Body)
		}
		if b.Status != http.StatusOK || b.Cache != "" || b.Shard != "" || string(b.Body) != "second" {
			t.Fatalf("second response leaks the first: %+v, body %q", b, b.Body)
		}
	}
}

// closeRecorder is a request body that records whether it was closed.
type closeRecorder struct {
	io.Reader
	closed bool
}

func (b *closeRecorder) Close() error {
	b.closed = true
	return nil
}

// TestRoundTripClosesRequestBody: HandlerTransport's RoundTrip closes
// the request body, as the http.RoundTripper contract requires, and
// the handler still reads the caller's bytes.
func TestRoundTripClosesRequestBody(t *testing.T) {
	var got []byte
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, _ = io.ReadAll(r.Body)
	})
	hc := &http.Client{Transport: HandlerTransport(h), Timeout: time.Minute}
	body := &closeRecorder{Reader: strings.NewReader(`{"distribution": "exponential(1)"}`)}
	req, err := http.NewRequest(http.MethodPost, "http://fleet"+api.PathPlan, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !body.closed {
		t.Error("RoundTrip left the request body open")
	}
	if string(got) != `{"distribution": "exponential(1)"}` {
		t.Errorf("handler read %q", got)
	}
}

// TestInProcessCallOnlyForBareClient: only a bare http.Client around
// HandlerTransport takes the in-process call; a Timeout, Jar,
// CheckRedirect or wrapped transport keeps the request on
// http.Client.Do, which the handler sees as a deadline when Timeout is
// set.
func TestInProcessCallOnlyForBareClient(t *testing.T) {
	var sawDeadline bool
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, sawDeadline = r.Context().Deadline()
	})
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		hc     *http.Client
		direct bool
	}{
		{"bare", &http.Client{Transport: HandlerTransport(h)}, true},
		{"timeout", &http.Client{Transport: HandlerTransport(h), Timeout: time.Minute}, false},
		{"jar", &http.Client{Transport: HandlerTransport(h), Jar: jar}, false},
		{"check redirect", &http.Client{Transport: HandlerTransport(h),
			CheckRedirect: func(*http.Request, []*http.Request) error { return nil }}, false},
		{"wrapped", &http.Client{Transport: &failingTransport{next: HandlerTransport(h)}}, false},
	} {
		c, err := New(Config{BaseURL: "http://fleet", HTTPClient: tc.hc})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.handler != nil; got != tc.direct {
			t.Errorf("%s: in-process call taken = %v, want %v", tc.name, got, tc.direct)
		}
		if _, err := c.PostRaw(context.Background(), api.PathPlan, []byte("{}"), ""); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := tc.name == "timeout"; sawDeadline != want {
			t.Errorf("%s: handler saw a deadline = %v, want %v", tc.name, sawDeadline, want)
		}
	}
}
