package client

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/inproc"
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
// itself, without http.Client.Do: one request carrying the caller's
// context, served into a pooled capture, and one copy of the response
// body into Raw.Body. Any other Client (a wrapped transport, or one of
// those three fields set) and every other request go through Do and
// RoundTrip, which serve into the same capture. Either way the handler
// sees the same request and PostRaw returns the same Raw; the
// in-process call does not follow redirects, which the plan service
// never issues.
func HandlerTransport(h http.Handler) http.RoundTripper {
	return handlerTransport{h: h}
}

type handlerTransport struct {
	h http.Handler
}

// RoundTrip implements http.RoundTripper: it reads and closes the
// request body, serves the request into a capture and returns the
// capture's response, whose header map is the handler's own with
// X-Cache and X-Shard as they stood when the response was committed.
// The response keeps the capture's header and body, so the capture is
// not released.
func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		if cerr := req.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	c := inproc.Serve(t.h, req, body)
	h := c.Header()
	setOrDel(h, api.HeaderCache, c.Cache)
	setOrDel(h, api.HeaderShard, c.Shard)
	return &http.Response{
		Status:        strconv.Itoa(c.Status) + " " + http.StatusText(c.Status),
		StatusCode:    c.Status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(bytes.NewReader(c.Body)),
		ContentLength: int64(len(c.Body)),
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

// jsonContentType is the Content-Type of every in-process post. Its
// capacity is its length, so a handler that appends to it gets a copy.
var jsonContentType = []string{"application/json"}

// serveInProcess posts body to h at u, as http.NewRequestWithContext
// and http.Client.Do would present it to the handler, and returns the
// response as a Raw whose Body is an exact-size copy.
func serveInProcess(ctx context.Context, h http.Handler, u *url.URL, body []byte, tenant string) *Raw {
	header := make(http.Header, 2)
	header["Content-Type"] = jsonContentType
	if tenant != "" {
		header[api.HeaderTenant] = []string{tenant}
	}
	req := http.Request{
		Method:     http.MethodPost,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     header,
		Host:       u.Host,
	}
	c := inproc.Serve(h, req.WithContext(ctx), body)
	raw := c.Raw
	raw.Body = make([]byte, len(c.Body))
	copy(raw.Body, c.Body)
	c.Release()
	return &raw
}
