package service

import (
	"bytes"
	"net/http"
	"sync"

	"repro/client"
	"repro/service/api"
)

// maxResponseBytes bounds how much of a response body a capture keeps:
// the client's read limit, so an in-process shard and a URL shard cut
// an oversized body at the same length.
const maxResponseBytes = 4 << 20

// pooledBodyCap is the largest body buffer a pooled capture keeps; a
// capture whose buffer grew past it is left to the GC.
const pooledBodyCap = 64 << 10

// capture is one call from the Frontend to an in-process shard: the
// request the shard's handler serves, and the http.ResponseWriter it
// serves into. Like net/http's server it commits the response at the
// first WriteHeader or Write, defaulting to 200, and keeps the status
// and X-Cache as of that moment and at most maxResponseBytes of the
// body, in raw, so the frontend forwards it as it forwards a URL
// shard's response.
type capture struct {
	req    http.Request
	body   requestBody
	header http.Header
	raw    client.Raw
}

// requestBody is a captured request's body: the frontend's bytes, read
// in place.
type requestBody struct{ bytes.Reader }

// Close implements io.Closer.
func (*requestBody) Close() error { return nil }

var captures = sync.Pool{New: func() any {
	return &capture{header: make(http.Header)}
}}

// serveCaptured serves h a copy of r — the caller's context, method,
// URL and headers — whose body is body, and returns the response. The
// caller reads what it needs from the capture and then releases it.
//
//repro:hotpath
func serveCaptured(h http.Handler, r *http.Request, body []byte) *capture {
	c := captures.Get().(*capture)
	c.req = *r
	c.body.Reset(body)
	c.req.Body = &c.body
	c.req.ContentLength = int64(len(body))
	h.ServeHTTP(c, &c.req)
	c.WriteHeader(http.StatusOK) // a handler that wrote nothing sent a 200
	return c
}

// release returns c to its pool; c and its response must not be used
// afterwards. A nil c is a no-op.
func (c *capture) release() {
	if c == nil || cap(c.raw.Body) > pooledBodyCap {
		return
	}
	clear(c.header)
	*c = capture{header: c.header, raw: client.Raw{Body: c.raw.Body[:0]}}
	captures.Put(c)
}

// Header implements http.ResponseWriter.
func (c *capture) Header() http.Header { return c.header }

// WriteHeader implements http.ResponseWriter; calls after the first
// are ignored, as over TCP.
func (c *capture) WriteHeader(status int) {
	if c.raw.Status != 0 {
		return
	}
	c.raw.Status = status
	c.raw.Cache = c.header.Get(api.HeaderCache)
}

// Write implements http.ResponseWriter.
func (c *capture) Write(p []byte) (int, error) {
	c.WriteHeader(http.StatusOK)
	if room := maxResponseBytes - len(c.raw.Body); room > 0 {
		c.raw.Body = append(c.raw.Body, p[:min(len(p), room)]...)
	}
	return len(p), nil
}
