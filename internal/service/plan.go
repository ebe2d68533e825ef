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

// decodeJSON strictly decodes one JSON value from a request body.
func decodeJSON(body io.Reader, v any) *apiError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid JSON request: %v", err)
	}
	if dec.More() {
		return badRequest("invalid JSON request: trailing data after the JSON body")
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

// CanonicalSpec canonicalizes a distribution spec exactly as the
// service's cache keys and the frontend's shard routing do. The
// Frontend uses it so that every spelling of one distribution routes
// to the same home shard.
func CanonicalSpec(spec string) (string, error) {
	d, err := repro.ParseDistribution(spec)
	if err != nil {
		return "", err
	}
	if canonical, err := repro.DistributionSpec(d); err == nil {
		return canonical, nil
	}
	// Distributions without a canonical serialization (e.g. empirical)
	// keep the caller's spelling.
	return spec, nil
}

// resolveInputs validates a plan request and canonicalizes it into a
// Planner (shared across requests with the same model and options), a
// parsed distribution, and a cache key. Two requests that spell the
// same plan differently — "exp(1)" vs "exponential(1.0)", an omitted
// option vs its default, an empty strategy vs "brute-force" — resolve
// to the same key.
func (s *Backend) resolveInputs(req api.PlanRequest) (*planInputs, *apiError) {
	if strings.TrimSpace(req.Distribution) == "" {
		return nil, badRequest("missing distribution spec (e.g. \"lognormal(3,0.5)\")")
	}
	d, err := repro.ParseDistribution(req.Distribution)
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
		Workers:     1, // inline: the server parallelizes across requests
	}
	pl, plKey, err := s.planner(model, opts)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	spec := req.Distribution
	if canonical, err := repro.DistributionSpec(d); err == nil {
		spec = canonical
	}
	return &planInputs{
		planner:  pl,
		dist:     d,
		strategy: strat,
		spec:     spec,
		key:      plKey + "|dist=" + spec + "|strategy=" + strat,
	}, nil
}

// plannerReq is the planner cache's key: a request's cost model and
// options as sent, before validation and defaulting. Floats are held as
// bits, so values plannerKey spells differently (-0 and 0) never share
// an entry.
type plannerReq struct {
	alpha, beta, gamma, epsilon uint64
	opts                        repro.Options // Epsilon cleared: held in epsilon
}

// plannerEntry is a cached Planner and its canonical plannerKey.
type plannerEntry struct {
	planner *repro.Planner
	key     string
}

// planner returns the Planner for (model, opts) and its canonical key.
// A cache hit costs one lookup keyed by the request's own values; only
// a miss builds a Planner — validating the model and resolving the
// option defaults — and derives the key. Two spellings of one option
// set (an omitted option and its default) cache separate but
// equivalent Planners under the same canonical key. A concurrent miss
// may build two equivalent Planners; either works and the cache keeps
// the later one.
func (s *Backend) planner(model repro.CostModel, opts repro.Options) (*repro.Planner, string, error) {
	req := plannerReq{
		alpha:   math.Float64bits(model.Alpha),
		beta:    math.Float64bits(model.Beta),
		gamma:   math.Float64bits(model.Gamma),
		epsilon: math.Float64bits(opts.Epsilon),
		opts:    opts,
	}
	req.opts.Epsilon = 0
	if e, ok := s.planners.Get(req); ok {
		s.metrics.plannerHits.Add(1)
		return e.planner, e.key, nil
	}
	s.metrics.plannerMisses.Add(1)
	pl, err := repro.NewPlanner(model, opts)
	if err != nil {
		return nil, "", err
	}
	key := plannerKey(pl.CostModel(), pl.Options())
	s.planners.Put(req, plannerEntry{pl, key})
	return pl, key, nil
}

// resolved is a validated, keyed request: its response-cache key and
// the computation that renders its response bytes on a cache miss.
type resolved struct {
	key     string
	compute func() ([]byte, error)
}

// handlePlan implements POST /v1/plan.
func (s *Backend) handlePlan(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, "plan", s.resolvePlan)
}

// handleSimulate implements POST /v1/simulate.
func (s *Backend) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.serve(w, r, "simulate", s.resolveSimulate)
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
		p, err := in.planner.Plan(in.dist, in.strategy)
		if err != nil {
			return nil, err
		}
		resp := api.PlanResponse{Plan: p.Summary(), CanonicalSpec: in.spec}
		if st, err := p.Stats(); err == nil {
			resp.Stats = &api.PlanStats{
				ExpectedAttempts: st.ExpectedAttempts,
				ExpectedReserved: st.ExpectedReserved,
				ExpectedUsed:     st.ExpectedUsed,
				Utilization:      st.Utilization,
			}
		}
		return marshalBody(resp)
	}}, nil
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
// body memo and the response cache: no decode, parse or Planner lookup.
// Anything else — a larger body, a memo miss, a memo hit whose response
// was evicted — is strictly decoded and resolved, and answered by
// respond; a small body that resolves is memoized on the way.
func (s *Backend) serve(w http.ResponseWriter, r *http.Request, endpoint string,
	resolve func(body io.Reader) (*resolved, *apiError)) {
	start := s.now()
	s.metrics.requests.Add(endpoint, 1)
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)
	defer func() {
		s.metrics.latencyNS.Add(endpoint, s.now().Sub(start).Nanoseconds())
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
		if key, ok := s.memo.get(endpoint, head); ok {
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
	res, aerr := resolve(body)
	if aerr != nil {
		s.writeAPIError(w, aerr)
		return
	}
	if whole {
		s.memo.put(endpoint, head, res.key)
	}
	s.respond(w, r, res.key, res.compute)
}

// respond serves a computed response for key: from the byte cache on a
// hit, otherwise through the singleflight group, bounded by the worker
// semaphore, honoring the per-request timeout. Cache hits return the
// exact bytes the original miss stored, so identical requests are
// byte-identical regardless of path; only the X-Cache header (hit,
// miss, coalesced) distinguishes them.
func (s *Backend) respond(w http.ResponseWriter, r *http.Request, key string, compute func() ([]byte, error)) {
	if body, ok := s.cache.Get(key); ok {
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
	type result struct {
		body    []byte
		err     error
		shared  bool
		lateHit bool
	}
	ch := make(chan result, 1)
	go func() {
		var lateHit bool
		body, err, shared := s.flight.Do(key, func() ([]byte, error) {
			// An earlier flight may have completed between our cache check
			// and this one starting; it stores its bytes before the flight
			// key is released, so a re-check here is authoritative. This
			// keeps the miss count exactly one per unique key no matter how
			// requests interleave.
			if b, ok := s.cache.Get(key); ok {
				lateHit = true
				return b, nil
			}
			if s.computeGate != nil {
				s.computeGate(key)
			}
			s.acquire()
			defer s.release()
			b, err := compute()
			if err == nil {
				s.cache.Put(key, b)
			}
			return b, err
		})
		// lateHit is only meaningful for the flight leader: a follower's
		// closure never ran, so its lateHit stays false.
		ch <- result{body, err, shared, lateHit && !shared}
	}()
	select {
	case res := <-ch:
		if res.err != nil {
			s.writeError(w, api.CodePlanFailed, res.err.Error())
			return
		}
		switch {
		case res.lateHit:
			s.metrics.cacheHits.Add(1)
			writeBody(w, "hit", res.body)
		case res.shared:
			s.metrics.coalesced.Add(1)
			writeBody(w, "coalesced", res.body)
		default:
			s.metrics.cacheMisses.Add(1)
			writeBody(w, "miss", res.body)
		}
	case <-ctx.Done():
		// The computation keeps running detached and will populate the
		// cache for later requests; this request reports the timeout.
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.writeError(w, api.CodeTimeout,
				"computation exceeded the request timeout of "+s.cfg.Limits.RequestTimeout.String())
			return
		}
		s.writeError(w, api.CodeCanceled, "request canceled")
	}
}

// marshalBody renders a response payload. One serialization point
// keeps cached bytes and freshly computed bytes identical.
func marshalBody(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// writeBody writes a successful JSON response with its cache verdict.
func writeBody(w http.ResponseWriter, cacheState string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.HeaderCache, cacheState)
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
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

func (s *Backend) writeAPIError(w http.ResponseWriter, aerr *apiError) {
	s.writeError(w, aerr.code, aerr.message)
}
