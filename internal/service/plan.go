package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/service/api"
)

// planInputs is a validated, canonicalized plan request.
type planInputs struct {
	planner  *repro.Planner
	dist     repro.Distribution
	strategy string // canonical: never empty
	spec     string // canonical distribution spec (routing/cache key)
	key      string // canonical cache key, without endpoint prefix
}

// apiError pairs a stable error code with its message; the HTTP
// status comes from the api code table.
type apiError struct {
	code    string
	message string
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{api.CodeBadRequest, fmt.Sprintf(format, args...)}
}

// decodeJSON strictly decodes one JSON value from a request body: no
// unknown fields, and nothing but whitespace after the value up to the
// end of the body. The next token is read rather than asking More,
// which is false on a stray '}' or ']' and on a read error.
func decodeJSON(body io.Reader, v any) *apiError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON request: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			return badRequest("invalid JSON request: trailing data after the JSON body")
		}
		return badRequest("invalid JSON request: %v", err)
	}
	return nil
}

// formatFloat renders v in the shortest form that round-trips, so
// canonical keys are stable across spellings of the same number.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// plannerKey canonically serializes a validated cost model and fully
// defaulted option set.
func plannerKey(m repro.CostModel, o repro.Options) string {
	return strings.Join([]string{
		"alpha=" + formatFloat(m.Alpha),
		"beta=" + formatFloat(m.Beta),
		"gamma=" + formatFloat(m.Gamma),
		"grid=" + strconv.Itoa(o.GridM),
		"samples=" + strconv.Itoa(o.SamplesN),
		"disc=" + strconv.Itoa(o.DiscN),
		"eps=" + formatFloat(o.Epsilon),
		"seed=" + strconv.FormatUint(o.Seed, 10),
		"mc=" + strconv.FormatBool(o.MonteCarlo),
		"preview=" + strconv.Itoa(o.PreviewLen),
		"attempts=" + strconv.Itoa(o.MaxAttempts),
	}, "|")
}

// CanonicalSpec parses a request's distribution spec and canonicalizes
// it exactly as the service's cache keys and the frontend's shard
// routing do, so every spelling of one distribution routes to the same
// home shard and shares one cache entry. A blank spec is an error.
// Both tiers call it, so they reject a spec with the same message.
func CanonicalSpec(spec string) (repro.Distribution, string, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, "", errors.New(`missing distribution spec (e.g. "lognormal(3,0.5)")`)
	}
	d, err := repro.ParseDistribution(spec)
	if err != nil {
		return nil, "", err
	}
	if canonical, err := repro.DistributionSpec(d); err == nil {
		return d, canonical, nil
	}
	// Distributions without a canonical serialization (e.g. empirical)
	// keep the caller's spelling.
	return d, spec, nil
}

// resolveInputs validates a plan request and canonicalizes it into a
// Planner, a parsed distribution, and a cache key. Two requests that
// spell the same plan differently — "exp(1)" vs "exponential(1.0)", an
// omitted option vs its default, an empty strategy vs "brute-force" —
// resolve to the same key.
func (s *Backend) resolveInputs(req api.PlanRequest) (*planInputs, *apiError) {
	d, spec, err := CanonicalSpec(req.Distribution)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	strat := req.Strategy
	if strat == "" {
		strat = repro.StrategyBruteForce
	}
	if !s.strategies[strat] {
		return nil, badRequest("unknown strategy %q (have %v)", req.Strategy, repro.Strategies())
	}
	model := repro.CostModel{Alpha: req.CostModel.Alpha, Beta: req.CostModel.Beta, Gamma: req.CostModel.Gamma}
	opts := repro.Options{
		GridM:       req.Options.GridM,
		SamplesN:    req.Options.SamplesN,
		DiscN:       req.Options.DiscN,
		Epsilon:     req.Options.Epsilon,
		Seed:        req.Options.Seed,
		MonteCarlo:  req.Options.MonteCarlo,
		PreviewLen:  req.Options.PreviewLen,
		MaxAttempts: req.Options.MaxAttempts,
		Workers:     1, // no fan-out: the server parallelizes across requests
	}
	pl, err := repro.NewPlanner(model, opts)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return &planInputs{
		planner:  pl,
		dist:     d,
		strategy: strat,
		spec:     spec,
		key:      plannerKey(pl.CostModel(), pl.Options()) + "|dist=" + spec + "|strategy=" + strat,
	}, nil
}

// resolved is a validated, keyed request: its response-cache key and
// the computation that renders its response bytes on a cache miss.
type resolved struct {
	key     string
	compute func() ([]byte, error)
}

// resolvePlan decodes and resolves a /v1/plan body.
func (s *Backend) resolvePlan(body io.Reader) (*resolved, *apiError) {
	var req api.PlanRequest
	if aerr := decodeJSON(body, &req); aerr != nil {
		return nil, aerr
	}
	in, aerr := s.resolveInputs(req)
	if aerr != nil {
		return nil, aerr
	}
	return &resolved{key: "plan|" + in.key, compute: func() ([]byte, error) {
		resp, err := in.planResponse()
		if err != nil {
			return nil, err
		}
		return planBody(resp)
	}}, nil
}

// planResponse computes the plan in names and its /v1/plan response.
func (in *planInputs) planResponse() (*api.PlanResponse, error) {
	p, err := in.planner.Plan(in.dist, in.strategy)
	if err != nil {
		return nil, err
	}
	resp := &api.PlanResponse{Plan: p.Summary(), CanonicalSpec: in.spec}
	if st, err := p.Stats(); err == nil {
		resp.Stats = &api.PlanStats{
			ExpectedAttempts: st.ExpectedAttempts,
			ExpectedReserved: st.ExpectedReserved,
			ExpectedUsed:     st.ExpectedUsed,
			Utilization:      st.Utilization,
		}
	}
	return resp, nil
}

// resolveSimulate decodes and resolves a /v1/simulate body.
func (s *Backend) resolveSimulate(body io.Reader) (*resolved, *apiError) {
	var req api.SimulateRequest
	if aerr := decodeJSON(body, &req); aerr != nil {
		return nil, aerr
	}
	if req.Samples < 0 {
		return nil, badRequest("samples must be positive, got %d", req.Samples)
	}
	if req.Samples == 0 {
		req.Samples = 1000
	}
	in, aerr := s.resolveInputs(req.PlanRequest)
	if aerr != nil {
		return nil, aerr
	}
	key := "sim|" + in.key +
		"|n=" + strconv.Itoa(req.Samples) +
		"|simseed=" + strconv.FormatUint(req.SimSeed, 10)
	return &resolved{key: key, compute: func() ([]byte, error) {
		p, err := in.planner.Plan(in.dist, in.strategy)
		if err != nil {
			return nil, err
		}
		normalized, stderr, err := p.Simulate(req.Samples, req.SimSeed)
		if err != nil {
			return nil, err
		}
		return marshalBody(api.SimulateResponse{
			Plan:           p.Summary(),
			CanonicalSpec:  in.spec,
			Samples:        req.Samples,
			SimSeed:        req.SimSeed,
			NormalizedCost: normalized,
			StdErr:         stderr,
		})
	}}, nil
}

// serve is the shared body of the POST endpoints: the method check,
// the request / in-flight / latency metrics, and the hit path. A body of
// at most memoBodyCap bytes that resolved before is answered from the
// body memo and the response cache: no decode, parse or Planner construction.
// Anything else — a larger body, a memo miss, a memo hit whose response
// was evicted — is strictly decoded and resolved, and answered by
// respond; a small body that resolves is memoized on the way.
func (s *Backend) serve(w http.ResponseWriter, r *http.Request, e *endpoint) {
	start := s.now()
	e.requests.Add(1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	defer func() {
		e.latencyNS.Add(s.now().Sub(start).Nanoseconds())
	}()
	if r.Method != http.MethodPost {
		s.writeError(w, api.CodeMethodNotAllowed, "use POST")
		return
	}
	buf := bodyBufs.Get().(*[]byte)
	defer bodyBufs.Put(buf)
	n, err := io.ReadFull(r.Body, *buf)
	head := (*buf)[:n]
	whole := err == io.EOF || err == io.ErrUnexpectedEOF
	if whole {
		if key, ok := s.memo.get(e.requests.name, head); ok {
			if body, ok := s.cache.Get(key); ok {
				s.metrics.bodyMemoHits.Add(1)
				s.metrics.cacheHits.Add(1)
				writeBody(w, "hit", body)
				return
			}
		}
	}
	var body io.Reader = bytes.NewReader(head)
	switch {
	case err == nil: // longer than the memo stores: stream the rest
		body = io.MultiReader(body, http.MaxBytesReader(w, r.Body, maxRequestBytes-int64(n)))
	case !whole: // a read error: the decoder meets it after head
		body = io.MultiReader(body, errReader{err})
	}
	res, aerr := e.resolve(body)
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if whole {
		s.memo.put(e.requests.name, head, res.key)
	}
	s.respond(w, r, res.key, res.compute)
}

// respond serves a computed response for key: from the byte cache on a
// hit, otherwise from the key's flight, which runs compute in one of
// the WorkerBudget slots. The request waits for the flight until its
// own context ends, at the per-request timeout. Cache hits return the
// exact bytes the original miss stored, so identical requests are
// byte-identical regardless of path; only the X-Cache header (hit,
// miss, coalesced) distinguishes them.
func (s *Backend) respond(w http.ResponseWriter, r *http.Request, key string, compute func() ([]byte, error)) {
	body, f, shared := s.flight.join(key, func() ([]byte, error) {
		if s.computeGate != nil {
			s.computeGate(key)
		}
		s.acquire()
		defer s.release()
		return compute()
	})
	if f == nil {
		s.metrics.cacheHits.Add(1)
		writeBody(w, "hit", body)
		return
	}
	ctx := r.Context()
	if s.cfg.Limits.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Limits.RequestTimeout)
		defer cancel()
	}
	select {
	case <-f.done:
		switch {
		case f.err != nil:
			s.writeError(w, api.CodePlanFailed, f.err.Error())
		case shared:
			s.metrics.coalesced.Add(1)
			writeBody(w, "coalesced", f.body)
		default:
			s.metrics.cacheMisses.Add(1)
			writeBody(w, "miss", f.body)
		}
	case <-ctx.Done():
		// The flight keeps computing and will populate the cache for
		// later requests; this request reports the timeout.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.writeError(w, api.CodeTimeout,
				"computation exceeded the request timeout of "+s.cfg.Limits.RequestTimeout.String())
			return
		}
		s.writeError(w, api.CodeCanceled, "request canceled")
	}
}

// marshalBody renders a response payload: the simulate and error
// bodies, and the plan bodies planBody's flat encoder declines. Every
// body is rendered once, on the miss that caches it, so cached bytes
// and freshly computed bytes are the same bytes; planBody's oracle
// tests hold its output to marshalBody's byte for byte.
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// planBody renders a /v1/plan response exactly as marshalBody would,
// without reflection or a second Indent pass. A response the flat
// encoder declines goes to marshalBody, which keeps encoding/json's
// escaping and its error text (an infinite cost fails the plan with
// json's "unsupported value" message).
func planBody(resp *api.PlanResponse) ([]byte, error) {
	if b, ok := appendPlanBody(resp); ok {
		return b, nil
	}
	return marshalBody(*resp)
}

// appendPlanBody renders resp as json.MarshalIndent(resp, "", "  ")
// plus a newline. It reports false when resp holds a value it does not
// render: a NaN or infinite float, or a string with a byte that JSON
// escapes.
func appendPlanBody(resp *api.PlanResponse) ([]byte, bool) {
	p := &resp.Plan
	// A float takes at most 24 bytes, so 600 bytes hold the fixed text
	// and nine floats, and 32 more each reservation line: the body is
	// rendered without growing its buffer.
	e := jsonAppender{ok: true, b: make([]byte, 0, 600+len(p.Strategy)+len(p.Distribution)+
		len(resp.CanonicalSpec)+32*len(p.Reservations))}
	e.raw("{\n  \"plan\": {\n    \"strategy\": ")
	e.str(p.Strategy)
	if p.Distribution != "" {
		e.raw(",\n    \"distribution\": ")
		e.str(p.Distribution)
	}
	e.raw(",\n    \"cost_model\": {\n      \"alpha\": ")
	e.float(p.CostModel.Alpha)
	e.raw(",\n      \"beta\": ")
	e.float(p.CostModel.Beta)
	e.raw(",\n      \"gamma\": ")
	e.float(p.CostModel.Gamma)
	e.raw("\n    },\n    \"reservations\": ")
	switch {
	case p.Reservations == nil:
		e.raw("null")
	case len(p.Reservations) == 0:
		e.raw("[]")
	default:
		e.raw("[")
		for i, v := range p.Reservations {
			if i > 0 {
				e.raw(",")
			}
			e.raw("\n      ")
			e.float(v)
		}
		e.raw("\n    ]")
	}
	e.raw(",\n    \"expected_cost\": ")
	e.float(p.ExpectedCost)
	e.raw(",\n    \"normalized_cost\": ")
	e.float(p.NormalizedCost)
	e.raw("\n  }")
	if resp.CanonicalSpec != "" {
		e.raw(",\n  \"canonical_spec\": ")
		e.str(resp.CanonicalSpec)
	}
	if st := resp.Stats; st != nil {
		e.raw(",\n  \"stats\": {\n    \"expected_attempts\": ")
		e.float(st.ExpectedAttempts)
		e.raw(",\n    \"expected_reserved\": ")
		e.float(st.ExpectedReserved)
		e.raw(",\n    \"expected_used\": ")
		e.float(st.ExpectedUsed)
		e.raw(",\n    \"utilization\": ")
		e.float(st.Utilization)
		e.raw("\n  }")
	}
	e.raw("\n}\n")
	return e.b, e.ok
}

// jsonAppender appends JSON tokens in encoding/json's spelling; ok
// turns false for good at the first value it does not render.
type jsonAppender struct {
	b  []byte
	ok bool
}

func (e *jsonAppender) raw(s string) { e.b = append(e.b, s...) }

// str appends s quoted. It renders only printable ASCII other than
// the characters json.Marshal escapes ('"', '\\', '<', '>', '&').
func (e *jsonAppender) str(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			e.ok = false
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// float appends a finite f as encoding/json does: the shortest form
// that round-trips, in 'e' notation below 1e-6 and from 1e21 on, with
// a one-digit negative exponent written e-7, not e-07.
func (e *jsonAppender) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// writeBody writes a successful JSON response with its cache verdict.
func writeBody(w http.ResponseWriter, cacheState string, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h[api.HeaderCache] = cacheHeader(cacheState)
	_, _ = w.Write(body)
}

// writeError writes the structured JSON error body for a stable api
// code and counts it; the HTTP status comes from the code table.
func (s *Backend) writeError(w http.ResponseWriter, code, message string) {
	s.metrics.errors.Add(code, 1)
	writeErrorBody(w, api.Status(code), api.ErrorBody{Code: code, Message: message})
}

// writeErrorBody renders one structured error envelope. Shared by the
// Backend and the Frontend so error bytes have one shape everywhere.
func writeErrorBody(w http.ResponseWriter, status int, body api.ErrorBody) {
	b, err := json.MarshalIndent(api.ErrorResponse{Error: body}, "", "  ")
	if err != nil {
		// Unreachable: ErrorResponse always marshals.
		http.Error(w, body.Message, status)
		return
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

func (s *Backend) writeAPIError(w http.ResponseWriter, aerr *apiError) {
	s.writeError(w, aerr.code, aerr.message)
}
