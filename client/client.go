// Package client is the typed Go client of the plan service wire API
// (service/api). It is the single consumer-side implementation of the
// schema: the sharding frontend proxies through it to backend shards,
// the benchmark (perfbench) and the serving-invariant tests drive
// in-process fleets with it, and external programs use it as the
// supported SDK.
//
// Plan and simulate computations are pure functions of the request, so
// every request is idempotent; the client therefore retries transport
// errors and transient server statuses (502/503/504) with jittered
// exponential backoff. Deterministic failures (4xx, plan_failed 500)
// are never retried.
//
// A Client whose HTTPClient is a bare http.Client around
// HandlerTransport (no Timeout, Jar or CheckRedirect) serves its plan
// and simulate posts by calling the handler directly rather than
// through http.Client.Do; see HandlerTransport for exactly what that
// call does.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
	"repro/service/api"
)

// Default retry parameters, used when the corresponding Config field
// is zero.
const (
	DefaultMaxRetries = 2
	DefaultRetryBase  = 50 * time.Millisecond
	DefaultRetryMax   = time.Second
)

// maxResponseBytes bounds how much of a response body the client reads.
const maxResponseBytes = 4 << 20

// Config tunes a Client.
type Config struct {
	// BaseURL is the service root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient issues the requests; nil selects a fresh http.Client.
	// Use HandlerTransport to talk to an in-process handler.
	HTTPClient *http.Client
	// Tenant, when set, is sent as the X-Tenant header on every
	// request, subjecting them to that tenant's fair-share quota.
	Tenant string
	// MaxRetries is how many times an idempotent request is retried
	// after the first attempt (default 2). Negative disables retries —
	// a frontend doing its own shard failover wants that.
	MaxRetries int
	// RetryBase and RetryMax bound the exponential backoff between
	// retries (defaults 50ms and 1s); the delay for attempt k is
	// min(RetryBase·2^k, RetryMax) scaled by a jitter factor in
	// [0.5, 1.5).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Seed drives the jitter stream, so a test or replayed load run
	// backs off deterministically.
	Seed uint64

	// sleep replaces the inter-retry wait in tests.
	sleep func(context.Context, time.Duration) error
}

// Client is a plan-service client. Construct with New; safe for
// concurrent use.
type Client struct {
	cfg Config

	// handler and direct are set for a Client that calls its
	// HandlerTransport's handler in process: direct maps each path
	// served that way to its URL, parsed once.
	handler http.Handler
	direct  map[string]*url.URL

	mu     sync.Mutex
	jitter *rng.Source
}

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

// APIError is a structured non-2xx service response.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the stable error code (see api.Codes).
	Code string
	// Message is the human-readable detail.
	Message string
	// RetryAfter is how long an over_quota response asked us to wait.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("plan service: %s (%d): %s", e.Code, e.Status, e.Message)
}

// New builds a Client for the service at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	if strings.TrimSpace(cfg.BaseURL) == "" {
		return nil, fmt.Errorf("client: BaseURL must be set")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = DefaultRetryBase
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = DefaultRetryMax
	}
	if cfg.sleep == nil {
		cfg.sleep = sleepCtx
	}
	c := &Client{cfg: cfg, jitter: rng.New(cfg.Seed)}
	c.handler, c.direct = inProcess(cfg.HTTPClient, cfg.BaseURL)
	return c, nil
}

// Plan computes a reservation plan. Non-2xx responses come back as
// *APIError.
func (c *Client) Plan(ctx context.Context, req api.PlanRequest) (api.PlanResponse, error) {
	var resp api.PlanResponse
	raw, err := c.PlanRaw(ctx, req)
	if err != nil {
		return resp, err
	}
	if err := decodeBody(raw, &resp); err != nil {
		return resp, err
	}
	return resp, nil
}

// Simulate computes a plan and Monte-Carlo-evaluates it. Non-2xx
// responses come back as *APIError.
func (c *Client) Simulate(ctx context.Context, req api.SimulateRequest) (api.SimulateResponse, error) {
	var resp api.SimulateResponse
	raw, err := c.SimulateRaw(ctx, req)
	if err != nil {
		return resp, err
	}
	if err := decodeBody(raw, &resp); err != nil {
		return resp, err
	}
	return resp, nil
}

// PlanRaw posts a plan request and returns the verbatim response,
// whatever its status. The error is non-nil only for transport-level
// failures that survived the retry budget.
func (c *Client) PlanRaw(ctx context.Context, req api.PlanRequest) (*Raw, error) {
	return c.post(ctx, api.PathPlan, req)
}

// SimulateRaw posts a simulate request and returns the verbatim
// response, whatever its status.
func (c *Client) SimulateRaw(ctx context.Context, req api.SimulateRequest) (*Raw, error) {
	return c.post(ctx, api.PathSimulate, req)
}

// Healthz probes the service's liveness endpoint.
func (c *Client) Healthz(ctx context.Context) error {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.BaseURL+api.PathHealthz, nil)
	if err != nil {
		return err
	}
	resp, err := c.cfg.HTTPClient.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponseBytes))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: healthz returned status %d", resp.StatusCode)
	}
	return nil
}

// post issues one POST with the retry policy: transport errors and
// transient statuses (502/503/504) are retried with jittered
// exponential backoff; everything else returns immediately.
func (c *Client) post(ctx context.Context, path string, payload any) (*Raw, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	return c.PostRaw(ctx, path, body, c.cfg.Tenant)
}

// PostRaw posts a pre-encoded JSON body to path under the usual retry
// policy, with tenant (when non-empty) overriding the configured
// X-Tenant. The sharding frontend uses it to forward request bodies
// verbatim on behalf of the original tenant.
func (c *Client) PostRaw(ctx context.Context, path string, body []byte, tenant string) (*Raw, error) {
	if tenant == "" {
		tenant = c.cfg.Tenant
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		raw, err := c.once(ctx, path, body, tenant)
		switch {
		case err == nil && !transientStatus(raw.Status):
			return raw, nil
		case err == nil:
			lastErr = fmt.Errorf("client: %s returned transient status %d", path, raw.Status)
			// A transient status is still a complete response; keep it
			// in case the retry budget runs out.
			if attempt >= c.cfg.MaxRetries {
				return raw, nil
			}
		default:
			lastErr = err
			if attempt >= c.cfg.MaxRetries {
				return nil, lastErr
			}
		}
		if err := c.cfg.sleep(ctx, c.backoff(attempt)); err != nil {
			return nil, err
		}
	}
}

// once issues a single POST attempt.
func (c *Client) once(ctx context.Context, path string, body []byte, tenant string) (*Raw, error) {
	// A nil ctx goes to Do, which reports it as an error.
	if u := c.direct[path]; u != nil && ctx != nil {
		return serveInProcess(c.handler, newPost(ctx, u, body, tenant)), nil
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set(api.HeaderTenant, tenant)
	}
	resp, err := c.cfg.HTTPClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	return &Raw{
		Status: resp.StatusCode,
		Body:   b,
		Cache:  resp.Header.Get(api.HeaderCache),
		Shard:  resp.Header.Get(api.HeaderShard),
	}, nil
}

// backoff returns the jittered delay before retry number attempt.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.cfg.RetryBase << uint(attempt)
	if d > c.cfg.RetryMax || d <= 0 {
		d = c.cfg.RetryMax
	}
	c.mu.Lock()
	u := c.jitter.Float64()
	c.mu.Unlock()
	return time.Duration((0.5 + u) * float64(d))
}

// transientStatus reports whether a status is worth retrying: the
// gateway-ish failures a different moment (or a recovered backend)
// can fix. Deterministic failures — 4xx, plan_failed 500 — are not.
func transientStatus(status int) bool {
	return status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// decodeBody turns a Raw into a typed response or *APIError.
func decodeBody(raw *Raw, out any) error {
	if raw.Status != http.StatusOK {
		var er api.ErrorResponse
		if err := json.Unmarshal(raw.Body, &er); err != nil || er.Error.Code == "" {
			return &APIError{Status: raw.Status, Code: "unknown", Message: string(raw.Body)}
		}
		return &APIError{
			Status:     raw.Status,
			Code:       er.Error.Code,
			Message:    er.Error.Message,
			RetryAfter: time.Duration(er.Error.RetryAfterSeconds * float64(time.Second)),
		}
	}
	if err := json.Unmarshal(raw.Body, out); err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// sleepCtx waits for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
