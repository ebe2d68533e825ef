package inproc

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/service/api"
)

// dirty answers with everything a capture records, so a case served
// after it shows whether a reused capture leaks any of it.
func dirty(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set(api.HeaderCache, "hit")
	w.Header().Set(api.HeaderShard, "shard-9")
	w.Header().Set("X-Other", "left over")
	w.WriteHeader(http.StatusAccepted)
	_, _ = io.WriteString(w, strings.Repeat("d", 1000))
}

// ctxKey keys the context value the handler must see on its request.
type ctxKey struct{}

// TestCapture: a capture commits its response as net/http does and
// keeps what a client reading it over TCP would see, and serves the
// handler a copy of the caller's request that reads the caller's
// bytes. Each case is served twice: into a fresh capture, and right
// after dirty into a capture from the same pool, which checks that a
// reused capture carries no header, status or body over.
func TestCapture(t *testing.T) {
	big := strings.Repeat("a", MaxResponseBytes-5) + strings.Repeat("b", 20)
	for _, tc := range []struct {
		name  string
		serve func(w http.ResponseWriter)
		want  Raw
	}{
		{"silent handler", func(http.ResponseWriter) {}, Raw{Status: http.StatusOK, Body: []byte{}}},
		{"bare Write", func(w http.ResponseWriter) {
			_, _ = io.WriteString(w, `{"answer"`)
			_, _ = io.WriteString(w, `: 42}`)
		}, Raw{Status: http.StatusOK, Body: []byte(`{"answer": 42}`)}},
		{"WriteHeader and headers after WriteHeader", func(w http.ResponseWriter) {
			w.Header().Set(api.HeaderCache, "miss")
			w.Header().Set(api.HeaderShard, "shard-1")
			w.WriteHeader(http.StatusTeapot)
			w.Header().Set(api.HeaderCache, "late")
			w.Header().Set(api.HeaderShard, "late")
			w.WriteHeader(http.StatusInternalServerError)
			_, _ = io.WriteString(w, "{}")
		}, Raw{Status: http.StatusTeapot, Body: []byte("{}"), Cache: "miss", Shard: "shard-1"}},
		{"WriteHeader and headers after Write", func(w http.ResponseWriter) {
			w.Header().Set(api.HeaderCache, "hit")
			_, _ = io.WriteString(w, "{}")
			w.Header().Set(api.HeaderCache, "late")
			w.Header().Set(api.HeaderShard, "late")
			w.WriteHeader(http.StatusTeapot)
		}, Raw{Status: http.StatusOK, Body: []byte("{}"), Cache: "hit"}},
		{"body past the limit", func(w http.ResponseWriter) {
			_, _ = io.WriteString(w, big[:MaxResponseBytes-5])
			_, _ = io.WriteString(w, big[MaxResponseBytes-5:])
		}, Raw{Status: http.StatusOK, Body: []byte(big[:MaxResponseBytes])}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(`{"distribution": "exponential(1)"}`)
			callerBody := io.NopCloser(strings.NewReader("the caller's own body"))
			r := httptest.NewRequest(http.MethodPost, api.PathPlan, callerBody)
			r.Header.Set(api.HeaderTenant, "team-a")
			r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, "caller"))

			for _, capture := range []string{"fresh", "reused"} {
				if capture == "fresh" {
					// Two collections empty a sync.Pool.
					runtime.GC()
					runtime.GC()
				} else {
					Serve(http.HandlerFunc(dirty), r, nil).Release()
				}
				var seen struct {
					header            int
					method, path, ten string
					ctx               any
					length            int64
					body              []byte
				}
				c := Serve(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
					seen.header = len(w.Header())
					seen.method, seen.path, seen.ten = req.Method, req.URL.Path, req.Header.Get(api.HeaderTenant)
					seen.ctx, seen.length = req.Context().Value(ctxKey{}), req.ContentLength
					seen.body, _ = io.ReadAll(req.Body)
					tc.serve(w)
				}), r, body)
				if !reflect.DeepEqual(c.Raw, tc.want) {
					t.Errorf("%s capture: Raw{%d %q %q, %d body bytes, nil body %v}, want Raw{%d %q %q, %d body bytes, nil body %v}",
						capture, c.Status, c.Cache, c.Shard, len(c.Body), c.Body == nil,
						tc.want.Status, tc.want.Cache, tc.want.Shard, len(tc.want.Body), tc.want.Body == nil)
				}
				c.Release()
				if seen.header != 0 {
					t.Errorf("%s capture: handler started with %d header keys left over", capture, seen.header)
				}
				if seen.method != http.MethodPost || seen.path != api.PathPlan || seen.ten != "team-a" || seen.ctx != "caller" {
					t.Errorf("%s capture: handler saw %s %s, tenant %q, context value %v; want the caller's",
						capture, seen.method, seen.path, seen.ten, seen.ctx)
				}
				if !bytes.Equal(seen.body, body) || seen.length != int64(len(body)) {
					t.Errorf("%s capture: handler read body %q, ContentLength %d; want %q", capture, seen.body, seen.length, body)
				}
			}
			if r.Body != callerBody {
				t.Error("Serve replaced the caller's request body")
			}
		})
	}
}
