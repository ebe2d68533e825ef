// Package inproc serves an HTTP request by calling an http.Handler
// directly and capturing the response in memory as a client reading it
// over TCP would see it. Every in-process call in the repo goes
// through it: the client's HandlerTransport and its direct call, and
// the service frontend's hop and health probe to an in-process shard.
package inproc

import (
	"bytes"
	"net/http"
	"sync"

	"repro/service/api"
)

// MaxResponseBytes bounds how much of a response body is kept: the
// client's read limit over a network, so an in-process call and a
// network one cut an oversized body at the same length.
const MaxResponseBytes = 4 << 20

// pooledBodyCap is the largest body buffer a pooled capture keeps; a
// capture whose buffer grew past it is left to the GC.
const pooledBodyCap = 64 << 10

// Raw is a verbatim service response: the exact bytes the service
// wrote plus the serving metadata headers. The frontend proxies Raw
// bodies through unchanged so cached responses stay byte-identical
// end to end.
type Raw struct {
	// Status is the HTTP status code.
	Status int
	// Body is the response body (JSON).
	Body []byte
	// Cache is the X-Cache header: "hit", "miss", or "coalesced".
	Cache string
	// Shard is the X-Shard header a frontend set, if any.
	Shard string
}

// Capture is one in-process call: the request a handler serves and
// the http.ResponseWriter it serves into. Like net/http's server it
// commits the response at the first WriteHeader or Write, defaulting
// to 200, and keeps the status, X-Cache and X-Shard as of that moment
// and at most MaxResponseBytes of the body, in Raw. The body is never
// nil: a handler that writes none leaves it empty, as a client reading
// the response over TCP sees it.
type Capture struct {
	Raw
	req    http.Request
	body   requestBody
	header http.Header
}

// requestBody is a captured request's body: the caller's bytes, read
// in place.
type requestBody struct{ bytes.Reader }

// Close implements io.Closer.
func (*requestBody) Close() error { return nil }

var captures = sync.Pool{New: func() any {
	return &Capture{Raw: Raw{Body: []byte{}}, header: make(http.Header)}
}}

// Serve serves h a copy of r — its context, method, URL and headers —
// whose body reads body in place, and returns the capture holding the
// response. The caller reads what it needs from the capture and then
// releases it; until then body must not change.
//
//repro:hotpath
func Serve(h http.Handler, r *http.Request, body []byte) *Capture {
	c := captures.Get().(*Capture)
	c.req = *r
	c.body.Reset(body)
	c.req.Body = &c.body
	c.req.ContentLength = int64(len(body))
	h.ServeHTTP(c, &c.req)
	c.WriteHeader(http.StatusOK) // a handler that wrote nothing sent a 200
	return c
}

// Release returns c to its pool; c and its response must not be used
// afterwards. A nil c is a no-op.
func (c *Capture) Release() {
	if c == nil || cap(c.Body) > pooledBodyCap {
		return
	}
	clear(c.header)
	*c = Capture{Raw: Raw{Body: c.Body[:0]}, header: c.header}
	captures.Put(c)
}

// Header implements http.ResponseWriter.
func (c *Capture) Header() http.Header { return c.header }

// WriteHeader implements http.ResponseWriter; calls after the first
// are ignored, as over TCP.
func (c *Capture) WriteHeader(status int) {
	if c.Status != 0 {
		return
	}
	c.Status = status
	c.Cache = c.header.Get(api.HeaderCache)
	c.Shard = c.header.Get(api.HeaderShard)
}

// Write implements http.ResponseWriter.
func (c *Capture) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	if room := MaxResponseBytes - len(c.Body); room > 0 {
		c.Body = append(c.Body, p[:min(len(p), room)]...)
	}
	return len(p), nil
}
