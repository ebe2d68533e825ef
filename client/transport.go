package client

import (
	"net/http"
	"net/http/httptest"
)

// HandlerTransport returns an http.RoundTripper that serves every
// request by invoking h directly, with no network or listener in
// between. It is how cmd/serve wires N in-process backend shards
// behind one frontend, and how tests and perfbench drive a whole fleet
// inside one process:
//
//	c, _ := client.New(client.Config{
//		BaseURL:    "http://shard0",
//		HTTPClient: &http.Client{Transport: client.HandlerTransport(backend)},
//	})
//
// The host in BaseURL is arbitrary — the transport ignores it.
func HandlerTransport(h http.Handler) http.RoundTripper {
	return handlerTransport{h: h}
}

type handlerTransport struct {
	h http.Handler
}

// RoundTrip implements http.RoundTripper by recording the handler's
// response in memory.
func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
