package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"

	"repro/service/api"
)

// HandlerTransport returns an http.RoundTripper that serves every
// request by invoking h directly, with no network or listener in
// between. It is how service.Warm, perfbench and the tests reach a
// whole fleet inside one process (the frontend itself calls its
// in-process shards directly, without a Client):
//
//	c, _ := client.New(client.Config{
//		BaseURL:    "http://shard0",
//		HTTPClient: &http.Client{Transport: client.HandlerTransport(backend)},
//	})
//
// The host in BaseURL is arbitrary — the transport ignores it.
//
// A Client built as above — the HTTPClient's Transport is the value
// HandlerTransport returned, and its Timeout, Jar and CheckRedirect are
// all unset — posts to api.PathPlan and api.PathSimulate by calling h
// itself, without http.Client.Do: one *http.Request carrying the
// caller's context, a pooled response writer, and one copy of the
// response body into Raw.Body. Any other Client (a wrapped transport,
// or one of those three fields set) and every other request go through
// Do and RoundTrip. Either way the handler sees the same request and
// PostRaw returns the same Raw; the in-process call does not follow
// redirects, which the plan service never issues.
func HandlerTransport(h http.Handler) http.RoundTripper {
	return handlerTransport{h: h}
}

type handlerTransport struct {
	h http.Handler
}

// RoundTrip implements http.RoundTripper by recording the handler's
// response in memory. The response carries the handler's header map
// itself, with X-Cache and X-Shard as they stood when the response was
// committed.
func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &responseWriter{header: make(http.Header)}
	t.h.ServeHTTP(w, req)
	w.commit()
	setOrDel(w.header, api.HeaderCache, w.cache)
	setOrDel(w.header, api.HeaderShard, w.shard)
	return &http.Response{
		Status:        strconv.Itoa(w.status) + " " + http.StatusText(w.status),
		StatusCode:    w.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          io.NopCloser(bytes.NewReader(w.body)),
		ContentLength: int64(len(w.body)),
		Request:       req,
	}, nil
}

func setOrDel(h http.Header, key, value string) {
	if value == "" {
		h.Del(key)
	} else {
		h.Set(key, value)
	}
}

// inProcess returns the handler a Client calls directly, and the URL of
// each path it calls that way, when hc is a bare http.Client around
// HandlerTransport; otherwise nil and nil.
func inProcess(hc *http.Client, baseURL string) (http.Handler, map[string]*url.URL) {
	t, ok := hc.Transport.(handlerTransport)
	if !ok || hc.Timeout != 0 || hc.Jar != nil || hc.CheckRedirect != nil {
		return nil, nil
	}
	direct := make(map[string]*url.URL, 2)
	for _, path := range []string{api.PathPlan, api.PathSimulate} {
		u, err := url.Parse(baseURL + path)
		if err != nil {
			// Do reports the parse error on every request.
			return nil, nil
		}
		direct[path] = u
	}
	return t.h, direct
}

// responseWriter is the http.ResponseWriter in-process handlers serve
// into. Like net/http's server it commits the response at the first
// WriteHeader or Write, defaulting to 200; it keeps the status, the
// serving metadata headers as of that moment, and at most
// maxResponseBytes of the body, which is what a client reading the
// response over TCP would see.
type responseWriter struct {
	header       http.Header
	status       int
	cache, shard string
	body         []byte
}

// Header implements http.ResponseWriter.
func (w *responseWriter) Header() http.Header { return w.header }

// WriteHeader implements http.ResponseWriter; calls after the first
// are ignored, as over TCP.
func (w *responseWriter) WriteHeader(status int) {
	if w.status != 0 {
		return
	}
	w.status = status
	w.cache = w.header.Get(api.HeaderCache)
	w.shard = w.header.Get(api.HeaderShard)
}

// Write implements http.ResponseWriter.
func (w *responseWriter) Write(p []byte) (int, error) {
	w.commit()
	if room := maxResponseBytes - len(w.body); room > 0 {
		w.body = append(w.body, p[:min(len(p), room)]...)
	}
	return len(p), nil
}

// commit commits a 200 response unless the handler already committed
// one.
func (w *responseWriter) commit() { w.WriteHeader(http.StatusOK) }

// pooledBodyCap is the largest body buffer a pooled writer keeps; a
// writer whose buffer grew past it is left to the GC.
const pooledBodyCap = 64 << 10

var writerPool = sync.Pool{New: func() any {
	return &responseWriter{header: make(http.Header)}
}}

// serveInProcess serves req with h into a pooled writer and returns the
// response as a Raw whose Body is an exact-size copy.
func serveInProcess(h http.Handler, req *http.Request) *Raw {
	w := writerPool.Get().(*responseWriter)
	h.ServeHTTP(w, req)
	w.commit()
	raw := &Raw{Status: w.status, Body: make([]byte, len(w.body)), Cache: w.cache, Shard: w.shard}
	copy(raw.Body, w.body)
	if cap(w.body) <= pooledBodyCap {
		clear(w.header)
		*w = responseWriter{header: w.header, body: w.body[:0]}
		writerPool.Put(w)
	}
	return raw
}

// newPost builds the request once sends, as http.NewRequestWithContext
// and http.Client.Do would present it to the handler, from a parsed
// URL.
func newPost(ctx context.Context, u *url.URL, body []byte, tenant string) *http.Request {
	p := &postState{contentType: [1]string{"application/json"}, tenant: [1]string{tenant}}
	p.body.Reset(body)
	h := make(http.Header, 2)
	h["Content-Type"] = p.contentType[:]
	if tenant != "" {
		h[api.HeaderTenant] = p.tenant[:]
	}
	req := http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          &p.body,
		ContentLength: int64(len(body)),
		Host:          u.Host,
	}
	return req.WithContext(ctx)
}

// postState holds an in-process request's body reader and header
// values in one allocation.
type postState struct {
	body        requestBody
	contentType [1]string
	tenant      [1]string
}

// requestBody is an in-process request's body: the caller's bytes,
// read in place.
type requestBody struct{ bytes.Reader }

// Close implements io.Closer.
func (*requestBody) Close() error { return nil }
