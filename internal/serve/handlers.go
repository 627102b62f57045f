package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/hw/platform"
	"vasppower/internal/memo"
	"vasppower/internal/omni"
	"vasppower/internal/sched"
	"vasppower/internal/workloads"
)

// maxBodyBytes bounds one request body; the largest legitimate body
// (an explicit scaling sweep) is well under 64 KiB.
const maxBodyBytes = 1 << 20

// Pooled request-body buffers keep the warm path allocation-free:
// steady-state bodies fit the initial capacity, so reads reuse one
// buffer per concurrent request.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

var errBodyTooLarge = errors.New("request body exceeds 1 MiB")

// bodyErrStatus distinguishes an oversized payload (413, so clients
// know shrinking — not fixing — the body is the remedy) from a
// transport-level read failure (400).
func bodyErrStatus(err error) int {
	if errors.Is(err, errBodyTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readBody reads the full request body into the pooled buffer,
// without allocating while the body fits its capacity.
func readBody(r *http.Request, bp *[]byte) ([]byte, error) {
	b := (*bp)[:0]
	for {
		if len(b) == cap(b) {
			if cap(b) >= maxBodyBytes {
				return nil, errBodyTooLarge
			}
			b = append(b, 0)[:len(b)]
			// append's growth overshoots; clamp the working capacity at
			// the limit so an over-limit body can never fit in the slack
			// and slip past the cap(b) >= maxBodyBytes check above.
			if cap(b) > maxBodyBytes {
				b = b[:len(b):maxBodyBytes]
			}
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			*bp = b
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Preallocated header values: assigning an existing slice into the
// header map is what keeps the warm path at zero allocations (Set
// would build a fresh []string per request).
var (
	jsonCT     = []string{"application/json"}
	xCacheHit  = []string{"hit"}
	xCacheMiss = []string{"miss"}
	retryAfter = []string{"1"}
)

// writeEntry writes a cached 200 response's canonical bytes.
func writeEntry(w http.ResponseWriter, resp []byte, hit bool) {
	h := w.Header()
	h["Content-Type"] = jsonCT
	if hit {
		h["X-Cache"] = xCacheHit
	} else {
		h["X-Cache"] = xCacheMiss
	}
	w.Write(resp)
}

// httpError writes a JSON error body and counts it. 4xx are the
// caller's fault, 5xx ours; both land in serve.errors.
func (s *Server) httpError(w http.ResponseWriter, status int, msg string) {
	s.m.Errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	resp, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(resp, '\n'))
}

// shed writes the saturation response. The 429 was already counted in
// serve.shed by the limiter; Retry-After tells well-behaved clients
// to back off instead of retry-storming.
func (s *Server) shed(w http.ResponseWriter) {
	h := w.Header()
	h["Content-Type"] = jsonCT
	h["Retry-After"] = retryAfter
	w.WriteHeader(http.StatusTooManyRequests)
	io.WriteString(w, "{\"error\":\"server at capacity, retry later\"}\n")
}

func (s *Server) observeLatency(start time.Time) {
	s.m.LatencyMS.Observe(float64(time.Since(start)) / 1e6)
}

// call is one parsed request on a cached endpoint: what the shared
// request path needs to admit, evaluate and cache it.
type call struct {
	timeout time.Duration // the endpoint's evaluation budget
	weight  int64         // admission weight
	key     string        // canonical identity in the response cache
	eval    evaluator     // computes the response bytes on a miss
	// stream, when set, answers the request itself and bypasses the
	// response cache (key and eval are unused).
	stream func(ctx context.Context, w http.ResponseWriter)
}

// An evaluator computes one parsed request's response bytes. Every
// implementation returns a non-nil error whenever it produces no 200
// response, so whatever the response cache holds is a 200 body.
// (An interface rather than a closure: the parsed request is already
// on the heap, and converting its pointer costs no allocation.)
type evaluator interface {
	eval(ctx context.Context, s *Server) ([]byte, error)
}

// serveCached is the one request path of the cached POST endpoints:
// method check, pooled body read, the verbatim-body alias lookup, then
// parse, admission, the canonical-key flight and the write. parse
// decodes and validates the body; it runs only on an alias miss.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, parse func(body []byte) (call, *apiError)) {
	start := time.Now()
	s.m.Requests.Inc()
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	body, err := readBody(r, buf)
	if err != nil {
		s.httpError(w, bodyErrStatus(err), err.Error())
		return
	}

	// Warm path: verbatim body bytes already mapped to canonical
	// response bytes. No parsing, no admission (nothing to evaluate),
	// no allocation.
	if resp := s.cache.lookup(body); resp != nil {
		s.m.Hits.Inc()
		writeEntry(w, resp, true)
		s.observeLatency(start)
		return
	}

	c, aerr := parse(body)
	if aerr != nil {
		s.httpError(w, aerr.status, aerr.msg)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.timeout)
	defer cancel()
	if err := s.limiter.Acquire(ctx, c.weight); err != nil {
		if errors.Is(err, ErrSaturated) {
			s.shed(w)
			return
		}
		s.httpError(w, http.StatusServiceUnavailable, "canceled while queued: "+err.Error())
		return
	}
	defer s.limiter.Release(c.weight)

	if c.stream != nil {
		s.m.Misses.Inc()
		c.stream(ctx, w)
		s.observeLatency(start)
		return
	}
	resp, how, err := s.cache.entries.Flight(ctx, c.key, func() ([]byte, error) { return c.eval.eval(ctx, s) })
	s.countFlight(how)
	if err != nil {
		s.evalError(w, err)
		return
	}
	s.cache.alias(body, resp)
	writeEntry(w, resp, how == memo.Found)
	s.observeLatency(start)
}

// countFlight scores an admitted request by how it got its response:
// a request that finds the canonical entry already complete (its body
// missed the alias index, e.g. a new spelling, or it was still
// decoding when the flight finished) is a hit like an alias hit;
// everything else is a miss, and joining another caller's flight is
// also coalesced.
func (s *Server) countFlight(how memo.How) {
	switch how {
	case memo.Found:
		s.m.Hits.Inc()
	case memo.Joined:
		s.m.Misses.Inc()
		s.m.Coalesced.Inc()
	default:
		s.m.Misses.Inc()
	}
}

// evalError maps an evaluation failure to HTTP: deadline → 504,
// anything else → 500. Evaluation errors are never cached, so the
// next identical request retries.
func (s *Server) evalError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		s.m.Timeouts.Inc()
		s.httpError(w, http.StatusGatewayTimeout, "evaluation timed out: "+err.Error())
		return
	}
	s.httpError(w, http.StatusInternalServerError, err.Error())
}

// ---- /v1/measure ----

// measureRequest is the wire form of one MeasureSpec. Unknown fields
// are rejected — a typoed "cap" silently measuring uncapped would be
// a debugging dead end.
type measureRequest struct {
	Bench    string  `json:"bench"`
	Platform string  `json:"platform,omitempty"`
	Nodes    int     `json:"nodes,omitempty"`
	Repeats  int     `json:"repeats,omitempty"`
	CapW     float64 `json:"cap_w,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Entropy  float64 `json:"entropy,omitempty"`
}

// apiError carries a validation failure to the HTTP layer.
type apiError struct {
	status int
	msg    string
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{http.StatusBadRequest, fmt.Sprintf(format, args...)}
}

// checkFinite applies the Kernel.Validate idiom to wire floats: NaN
// and ±Inf never enter a spec (JSON cannot express them literally,
// but oversized exponents and future non-JSON callers can).
func checkFinite(field string, v float64) *apiError {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return badRequest("%s must be finite, got %v", field, v)
	}
	return nil
}

// readerPool recycles the bytes.Reader feeding each strict decode.
// json.Decoder has no Reset, so the decoder itself must be rebuilt per
// request, but its input reader is the pool's to keep — one fewer
// allocation on every cold request.
var readerPool = sync.Pool{New: func() any { return new(bytes.Reader) }}

func decodeStrict(body []byte, dst any) *apiError {
	br := readerPool.Get().(*bytes.Reader)
	br.Reset(body)
	dec := json.NewDecoder(br)
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	// Trailing garbage after the JSON value is malformed too.
	trailing := err == nil && dec.More()
	br.Reset(nil) // drop the pooled body reference before returning br
	readerPool.Put(br)
	if err != nil {
		return badRequest("malformed request: %v", err)
	}
	if trailing {
		return badRequest("malformed request: trailing data after JSON body")
	}
	return nil
}

// resolvePlatform maps a wire platform name to a registered Platform.
func resolvePlatform(name string) (platform.Platform, *apiError) {
	if name == "" {
		return platform.Default(), nil
	}
	p, err := platform.Get(name)
	if err != nil {
		return platform.Platform{}, badRequest("unknown platform %q (registered: %s)",
			name, strings.Join(platform.List(), ", "))
	}
	return p, nil
}

// specLimits bound a single measurement to what the simulator handles
// in bounded time; they exist to shed abusive requests, not to police
// science.
const (
	maxSpecNodes   = 4096
	maxSpecRepeats = 100
)

func (req measureRequest) toSpec() (core.MeasureSpec, *apiError) {
	b, ok := workloads.ByName(req.Bench)
	if !ok {
		return core.MeasureSpec{}, badRequest("unknown benchmark %q", req.Bench)
	}
	p, aerr := resolvePlatform(req.Platform)
	if aerr != nil {
		return core.MeasureSpec{}, aerr
	}
	if req.Nodes < 0 || req.Nodes > maxSpecNodes {
		return core.MeasureSpec{}, badRequest("nodes %d out of range [0, %d]", req.Nodes, maxSpecNodes)
	}
	if req.Repeats < 0 || req.Repeats > maxSpecRepeats {
		return core.MeasureSpec{}, badRequest("repeats %d out of range [0, %d]", req.Repeats, maxSpecRepeats)
	}
	if aerr := checkFinite("cap_w", req.CapW); aerr != nil {
		return core.MeasureSpec{}, aerr
	}
	if req.CapW < 0 {
		return core.MeasureSpec{}, badRequest("cap_w %g must be >= 0 (0 = uncapped)", req.CapW)
	}
	if aerr := checkFinite("entropy", req.Entropy); aerr != nil {
		return core.MeasureSpec{}, aerr
	}
	if req.Entropy < 0 || req.Entropy > 1 {
		return core.MeasureSpec{}, badRequest("entropy %g out of range [0, 1]", req.Entropy)
	}
	return core.MeasureSpec{
		Bench: b, Platform: p, Nodes: req.Nodes, Repeats: req.Repeats,
		CapW: req.CapW, Seed: req.Seed, Entropy: req.Entropy,
	}, nil
}

// profileJSON summarizes one component's power profile on the wire.
type profileJSON struct {
	MeanW     float64 `json:"mean_w"`
	MaxW      float64 `json:"max_w"`
	StdDevW   float64 `json:"stddev_w"`
	HighModeW float64 `json:"high_mode_w,omitempty"`
	FWHMW     float64 `json:"fwhm_w,omitempty"`
}

func toProfileJSON(p core.Profile) profileJSON {
	pj := profileJSON{
		MeanW:   p.Summary.Mean,
		MaxW:    p.Summary.Max,
		StdDevW: p.Summary.StdDev,
	}
	if m, ok := p.HighMode(); ok {
		pj.HighModeW = m.X
		pj.FWHMW = m.FWHM
	}
	return pj
}

// measureResponse is the canonical wire form of one measurement: the
// resolved spec (so a client sees the defaults that applied) plus the
// profile summary. Field order is fixed — responses are cached as
// bytes and diffed byte-for-byte against powerd -oneshot in CI.
type measureResponse struct {
	Bench    string  `json:"bench"`
	Platform string  `json:"platform"`
	Nodes    int     `json:"nodes"`
	Repeats  int     `json:"repeats"`
	CapW     float64 `json:"cap_w"`
	Seed     uint64  `json:"seed"`
	Entropy  float64 `json:"entropy,omitempty"`

	RuntimeS float64     `json:"runtime_s"`
	EnergyJ  float64     `json:"energy_j"`
	Node     profileJSON `json:"node"`
	CPU      profileJSON `json:"cpu"`
	Mem      profileJSON `json:"mem"`
	GPUSum   profileJSON `json:"gpu_sum"`
	GPUModeW float64     `json:"gpu_mode_w,omitempty"`
	GPUShare float64     `json:"gpu_share"`
}

func buildMeasureResponse(spec core.MeasureSpec, jp core.JobProfile) measureResponse {
	resolved := spec
	resolved.Platform = platform.OrDefault(spec.Platform)
	if resolved.Nodes <= 0 {
		resolved.Nodes = 1
	}
	if resolved.Repeats <= 0 {
		resolved.Repeats = 1
	}
	// A cap at or above the GPU's TDP is the stock power limit, so the
	// canonical cache key treats it as uncapped; echo the cap the same
	// way, because cap_w=0 and cap_w>=TDP requests share one cached
	// response entry and the bytes must not depend on which arrived
	// first.
	if resolved.CapW <= 0 || resolved.CapW >= resolved.Platform.GPU.TDP {
		resolved.CapW = 0
	}
	resp := measureResponse{
		Bench:    spec.Bench.Name,
		Platform: resolved.Platform.Name,
		Nodes:    resolved.Nodes,
		Repeats:  resolved.Repeats,
		CapW:     resolved.CapW,
		Seed:     spec.Seed,
		Entropy:  spec.Entropy,
		RuntimeS: jp.Runtime,
		EnergyJ:  jp.EnergyJ,
		Node:     toProfileJSON(jp.NodeTotal),
		CPU:      toProfileJSON(jp.CPU),
		Mem:      toProfileJSON(jp.Mem),
		GPUSum:   toProfileJSON(jp.GPUSum),
		GPUShare: jp.GPUShareOfNode(),
	}
	resp.GPUModeW = jp.GPUHighMode()
	return resp
}

// encodeJSON renders a response body (non-nil exactly when err is
// nil).
func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, s.parseMeasure)
}

func (s *Server) parseMeasure(body []byte) (call, *apiError) {
	req := new(measureRequest)
	if aerr := decodeStrict(body, req); aerr != nil {
		return call{}, aerr
	}
	spec, aerr := req.toSpec()
	if aerr != nil {
		return call{}, aerr
	}
	return call{timeout: s.cfg.Timeout, weight: 1, key: measureCanonKey(spec), eval: req}, nil
}

// eval re-derives the spec rather than keeping it on the heap beside
// the request: toSpec is a table lookup, the spec is most of a
// kilobyte, and parseMeasure already accepted it.
func (req *measureRequest) eval(_ context.Context, s *Server) ([]byte, error) {
	spec, _ := req.toSpec()
	jp, err := s.cfg.Measure(spec)
	if err != nil {
		return nil, err
	}
	return encodeJSON(buildMeasureResponse(spec, jp))
}

// ---- /v1/sweep ----

// sweepRequest describes either a power-cap sweep (kind "cap": one
// bench at fixed node count across [from_w, to_w] in step_w
// increments) or a scaling sweep (kind "scaling": one bench across
// node_counts at a fixed cap).
type sweepRequest struct {
	Kind       string  `json:"kind"`
	Bench      string  `json:"bench"`
	Platform   string  `json:"platform,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Repeats    int     `json:"repeats,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Entropy    float64 `json:"entropy,omitempty"`
	FromW      float64 `json:"from_w,omitempty"` // cap sweep; 0 = platform GPU MinPowerLimit
	ToW        float64 `json:"to_w,omitempty"`   // cap sweep; 0 = platform GPU TDP
	StepW      float64 `json:"step_w,omitempty"` // cap sweep; 0 = 25 W
	CapW       float64 `json:"cap_w,omitempty"`  // scaling sweep's fixed cap
	NodeCounts []int   `json:"node_counts,omitempty"`
	Stream     bool    `json:"stream,omitempty"` // NDJSON, one point per line
}

type sweepResponse struct {
	Kind     string            `json:"kind"`
	Bench    string            `json:"bench"`
	Platform string            `json:"platform"`
	Count    int               `json:"count"`
	Points   []measureResponse `json:"points"`
}

// toSpecs expands the request into its per-point MeasureSpecs, in
// sweep order.
func (req sweepRequest) toSpecs(maxPoints int) ([]core.MeasureSpec, *apiError) {
	base := measureRequest{
		Bench: req.Bench, Platform: req.Platform, Nodes: req.Nodes,
		Repeats: req.Repeats, Seed: req.Seed, Entropy: req.Entropy,
	}
	switch req.Kind {
	case "cap":
		p, aerr := resolvePlatform(req.Platform)
		if aerr != nil {
			return nil, aerr
		}
		for _, f := range [...]struct {
			name string
			v    float64
		}{{"from_w", req.FromW}, {"to_w", req.ToW}, {"step_w", req.StepW}} {
			if aerr := checkFinite(f.name, f.v); aerr != nil {
				return nil, aerr
			}
			if f.v < 0 {
				return nil, badRequest("%s %g must be >= 0", f.name, f.v)
			}
		}
		from, to, step := req.FromW, req.ToW, req.StepW
		if from == 0 {
			from = p.GPU.MinPowerLimit
		}
		if to == 0 {
			to = p.GPU.TDP
		}
		if step == 0 {
			step = 25
		}
		if from > to {
			return nil, badRequest("from_w %g exceeds to_w %g", from, to)
		}
		// Validate the point count in float space: a tiny step_w makes
		// (to-from)/step overflow int, and out-of-range float→int
		// conversion yields an unspecified (on amd64, negative) value
		// that would slip past the bound and panic in make.
		pts := (to-from)/step + 1
		if pts > float64(maxPoints) {
			return nil, badRequest("sweep of %g points exceeds the %d-point limit; raise step_w or narrow the range", math.Floor(pts), maxPoints)
		}
		n := int(pts)
		if n < 1 {
			n = 1
		}
		specs := make([]core.MeasureSpec, 0, n)
		for i := 0; i < n; i++ {
			pt := base
			pt.CapW = from + float64(i)*step
			spec, aerr := pt.toSpec()
			if aerr != nil {
				return nil, aerr
			}
			specs = append(specs, spec)
		}
		return specs, nil
	case "scaling":
		if len(req.NodeCounts) == 0 {
			return nil, badRequest("scaling sweep requires node_counts")
		}
		if len(req.NodeCounts) > maxPoints {
			return nil, badRequest("sweep of %d points exceeds the %d-point limit", len(req.NodeCounts), maxPoints)
		}
		if aerr := checkFinite("cap_w", req.CapW); aerr != nil {
			return nil, aerr
		}
		specs := make([]core.MeasureSpec, 0, len(req.NodeCounts))
		for _, nodes := range req.NodeCounts {
			pt := base
			pt.Nodes = nodes
			pt.CapW = req.CapW
			spec, aerr := pt.toSpec()
			if aerr != nil {
				return nil, aerr
			}
			specs = append(specs, spec)
		}
		return specs, nil
	default:
		return nil, badRequest("unknown sweep kind %q (want \"cap\" or \"scaling\")", req.Kind)
	}
}

// sweepCanonKey hashes the ordered per-point canonical keys: two
// sweeps are identical exactly when they expand to the same points in
// the same order. Each point's key is rendered into one pooled buffer
// and hashed in place, so a large sweep allocates no per-point
// strings.
func sweepCanonKey(kind string, specs []core.MeasureSpec) string {
	h := sha256.New()
	io.WriteString(h, kind)
	bp := getBuf()
	for _, spec := range specs {
		*bp = append((*bp)[:0], '|')
		*bp = appendMeasureCanonKey(*bp, spec)
		h.Write(*bp)
	}
	putBuf(bp)
	return "sweep|" + hex.EncodeToString(h.Sum(nil))
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, s.parseSweep)
}

// sweepCall is a parsed /v1/sweep request.
type sweepCall struct {
	req   sweepRequest
	specs []core.MeasureSpec
}

func (s *Server) parseSweep(body []byte) (call, *apiError) {
	c := new(sweepCall)
	if aerr := decodeStrict(body, &c.req); aerr != nil {
		return call{}, aerr
	}
	var aerr *apiError
	if c.specs, aerr = c.req.toSpecs(s.cfg.MaxSweepPoints); aerr != nil {
		return call{}, aerr
	}
	out := call{timeout: s.cfg.SweepTimeout, weight: int64(len(c.specs))}
	if c.req.Stream {
		out.stream = func(ctx context.Context, w http.ResponseWriter) { s.streamSweep(ctx, w, c.specs) }
		return out, nil
	}
	out.key, out.eval = sweepCanonKey(c.req.Kind, c.specs), c
	return out, nil
}

func (c *sweepCall) eval(ctx context.Context, s *Server) ([]byte, error) {
	jps, err := s.batcher.Measure(ctx, c.specs)
	if err != nil {
		return nil, err
	}
	resp := sweepResponse{
		Kind:     c.req.Kind,
		Bench:    c.specs[0].Bench.Name,
		Platform: platform.OrDefault(c.specs[0].Platform).Name,
		Count:    len(c.specs),
		Points:   make([]measureResponse, len(c.specs)),
	}
	for i, jp := range jps {
		resp.Points[i] = buildMeasureResponse(c.specs[i], jp)
	}
	return encodeJSON(resp)
}

// streamSweep writes the sweep as NDJSON, one point per line, flushed
// as each point's flight completes — a client watching a long sweep
// sees points appear in order instead of waiting for the batch.
// Streamed responses bypass the response cache (the value of a stream
// is its incremental delivery; the memo tiers below still dedupe the
// points themselves).
func (s *Server) streamSweep(ctx context.Context, w http.ResponseWriter, specs []core.MeasureSpec) {
	h := w.Header()
	h["Content-Type"] = []string{"application/x-ndjson"}
	flusher, _ := w.(http.Flusher)
	flights := make([]*PointFlight, len(specs))
	for i, spec := range specs {
		flights[i] = s.batcher.Enqueue(spec)
	}
	for i, f := range flights {
		jp, err := f.Wait(ctx)
		if err != nil {
			// Mid-stream failure: the status line is already out, so
			// deliver the error as a terminal NDJSON record.
			line, _ := json.Marshal(struct {
				Error string `json:"error"`
				Point int    `json:"point"`
			}{err.Error(), i})
			w.Write(append(line, '\n'))
			if flusher != nil {
				flusher.Flush()
			}
			s.m.Errors.Inc()
			return
		}
		line, err := json.Marshal(buildMeasureResponse(specs[i], jp))
		if err != nil {
			s.m.Errors.Inc()
			return
		}
		w.Write(append(line, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// ---- /v1/schedule ----

// scheduleRequest configures one facility what-if: a synthetic VASP
// job mix streamed through the power-aware scheduler under a policy.
type scheduleRequest struct {
	Policy       string      `json:"policy"`                // nocap | uniform | profile-aware
	ClusterNodes int         `json:"cluster_nodes"`         // required
	Jobs         int         `json:"jobs"`                  // required
	BudgetKW     float64     `json:"budget_kw,omitempty"`   // 0 = unconstrained
	IdleNodeW    float64     `json:"idle_node_w,omitempty"` // 0 = 460 (Perlmutter idle)
	UniformW     float64     `json:"uniform_w,omitempty"`   // uniform policy cap; 0 = 200
	ArrivalS     float64     `json:"arrival_s,omitempty"`   // mean inter-arrival; 0 = 90
	Seed         uint64      `json:"seed,omitempty"`
	Platform     string      `json:"platform,omitempty"`
	Envelope     []phaseJSON `json:"envelope,omitempty"` // time-varying budget
}

type phaseJSON struct {
	StartS   float64 `json:"start_s"`
	BudgetKW float64 `json:"budget_kw"`
}

type scheduleResponse struct {
	Policy          string  `json:"policy"`
	ClusterNodes    int     `json:"cluster_nodes"`
	Jobs            int     `json:"jobs"`
	Completed       int     `json:"completed"`
	Dropped         int     `json:"dropped"`
	MakespanS       float64 `json:"makespan_s"`
	MeanWaitS       float64 `json:"mean_wait_s"`
	MaxWaitS        float64 `json:"max_wait_s"`
	PeakPowerW      float64 `json:"peak_power_w"`
	EnergyJ         float64 `json:"energy_j"`
	MeanPerfLoss    float64 `json:"mean_perf_loss"`
	ThroughputJobsH float64 `json:"throughput_jobs_h"`
}

const (
	maxClusterNodes  = 100000
	defaultIdleNodeW = 460 // Perlmutter idle node draw, W (pmsched's default)
	defaultUniformW  = 200
	defaultArrivalS  = 90
	// maxArrivalS bounds the mean inter-arrival so that every accepted
	// mix draws finite arrivals: at 1e9 s, even the largest mix's
	// arrival sum stays far below overflow.
	maxArrivalS = 1e9
)

func (req scheduleRequest) validate(maxJobs int) *apiError {
	if req.ClusterNodes <= 0 || req.ClusterNodes > maxClusterNodes {
		return badRequest("cluster_nodes %d out of range [1, %d]", req.ClusterNodes, maxClusterNodes)
	}
	if req.Jobs <= 0 || req.Jobs > maxJobs {
		return badRequest("jobs %d out of range [1, %d]", req.Jobs, maxJobs)
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"budget_kw", req.BudgetKW}, {"idle_node_w", req.IdleNodeW},
		{"uniform_w", req.UniformW}, {"arrival_s", req.ArrivalS}} {
		if aerr := checkFinite(f.name, f.v); aerr != nil {
			return aerr
		}
		if f.v < 0 {
			return badRequest("%s %g must be >= 0", f.name, f.v)
		}
	}
	if req.ArrivalS > maxArrivalS {
		return badRequest("arrival_s %g out of range [0, %g]", req.ArrivalS, float64(maxArrivalS))
	}
	last := math.Inf(-1)
	for i, ph := range req.Envelope {
		if aerr := checkFinite("envelope.start_s", ph.StartS); aerr != nil {
			return aerr
		}
		if aerr := checkFinite("envelope.budget_kw", ph.BudgetKW); aerr != nil {
			return aerr
		}
		if ph.StartS <= last {
			return badRequest("envelope phases must have strictly increasing start_s (phase %d)", i)
		}
		last = ph.StartS
	}
	return nil
}

// scheduleCanonKey: every field that affects the result, in fixed order.
func scheduleCanonKey(req scheduleRequest, platformName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule|%s|%s|n%d|j%d|b%g|i%g|u%g|a%g|s%d",
		req.Policy, platformName, req.ClusterNodes, req.Jobs,
		req.BudgetKW, req.IdleNodeW, req.UniformW, req.ArrivalS, req.Seed)
	for _, ph := range req.Envelope {
		fmt.Fprintf(&b, "|e%g:%g", ph.StartS, ph.BudgetKW)
	}
	return b.String()
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, s.parseSchedule)
}

// scheduleCall is a parsed /v1/schedule request.
type scheduleCall struct {
	req      scheduleRequest
	platform platform.Platform
	policy   sched.Policy
}

func (s *Server) parseSchedule(body []byte) (call, *apiError) {
	const scheduleWeight = 2 // one sim = many measurements, but they memoize
	c := new(scheduleCall)
	if aerr := decodeStrict(body, &c.req); aerr != nil {
		return call{}, aerr
	}
	req := &c.req
	if aerr := req.validate(s.cfg.MaxScheduleJobs); aerr != nil {
		return call{}, aerr
	}
	p, aerr := resolvePlatform(req.Platform)
	if aerr != nil {
		return call{}, aerr
	}
	uniformW := req.UniformW
	if uniformW == 0 {
		uniformW = defaultUniformW
	}
	switch req.Policy {
	case "nocap":
		c.policy = sched.NoCap{NodeTDP: p.Node.TDP}
	case "uniform":
		c.policy = sched.UniformCap{Watts: uniformW, HostWatts: 350}
	case "profile-aware":
		c.policy = sched.DefaultProfileAware()
	default:
		return call{}, badRequest("unknown policy %q (want nocap, uniform, or profile-aware)", req.Policy)
	}
	c.platform = p
	return call{timeout: s.cfg.ScheduleTimeout, weight: scheduleWeight, key: scheduleCanonKey(*req, p.Name), eval: c}, nil
}

func (c *scheduleCall) eval(_ context.Context, s *Server) ([]byte, error) {
	req := &c.req
	idle := req.IdleNodeW
	if idle == 0 {
		idle = defaultIdleNodeW
	}
	arrival := req.ArrivalS
	if arrival == 0 {
		arrival = defaultArrivalS
	}
	var schedule []sched.BudgetPhase
	for _, ph := range req.Envelope {
		schedule = append(schedule, sched.BudgetPhase{Start: ph.StartS, BudgetW: ph.BudgetKW * 1000})
	}
	cat := sched.NewCatalogOn(c.platform, req.Seed)
	cat.SetMeasure(s.cfg.Measure)
	res, err := sched.SimulateMix(sched.SimConfig{
		ClusterNodes:   req.ClusterNodes,
		BudgetW:        req.BudgetKW * 1000,
		BudgetSchedule: schedule,
		IdleNodeW:      idle,
		Policy:         c.policy,
		Catalog:        cat,
	}, sched.NewSyntheticMix(req.Jobs, arrival, req.Seed))
	if err != nil {
		return nil, err
	}
	return encodeJSON(scheduleResponse{
		Policy:          res.Policy,
		ClusterNodes:    res.ClusterNodes,
		Jobs:            req.Jobs,
		Completed:       res.Completed,
		Dropped:         res.Dropped,
		MakespanS:       res.Makespan,
		MeanWaitS:       res.MeanWait,
		MaxWaitS:        res.MaxWait,
		PeakPowerW:      res.PeakPowerW,
		EnergyJ:         res.TotalEnergyJ,
		MeanPerfLoss:    res.MeanPerfLoss,
		ThroughputJobsH: res.Throughput,
	})
}

// ---- /v1/omni/* (read-only; uncached — the store mutates live) ----

func (s *Server) omniStore(w http.ResponseWriter) *omni.Store {
	if s.cfg.Store == nil {
		s.httpError(w, http.StatusNotFound, "omni store not enabled on this server")
		return nil
	}
	return s.cfg.Store
}

func (s *Server) handleOmniHosts(w http.ResponseWriter, r *http.Request) {
	s.m.Requests.Inc()
	store := s.omniStore(w)
	if store == nil {
		return
	}
	type hostJSON struct {
		Host    string   `json:"host"`
		Metrics []string `json:"metrics"`
	}
	var out struct {
		Hosts []hostJSON `json:"hosts"`
	}
	for _, h := range store.Hosts() {
		out.Hosts = append(out.Hosts, hostJSON{Host: h, Metrics: store.MetricsOf(h)})
	}
	s.writeJSON(w, out)
}

func (s *Server) handleOmniQuery(w http.ResponseWriter, r *http.Request) {
	s.m.Requests.Inc()
	store := s.omniStore(w)
	if store == nil {
		return
	}
	q := r.URL.Query()
	host, metric := q.Get("host"), q.Get("metric")
	if host == "" || metric == "" {
		s.httpError(w, http.StatusBadRequest, "host and metric query parameters are required")
		return
	}
	t0, t1 := 0.0, math.MaxFloat64
	var err error
	if v := q.Get("t0"); v != "" {
		if t0, err = strconv.ParseFloat(v, 64); err != nil {
			s.httpError(w, http.StatusBadRequest, "bad t0: "+err.Error())
			return
		}
	}
	if v := q.Get("t1"); v != "" {
		if t1, err = strconv.ParseFloat(v, 64); err != nil {
			s.httpError(w, http.StatusBadRequest, "bad t1: "+err.Error())
			return
		}
	}
	series, err := store.Query(host, metric, t0, t1)
	if err != nil {
		s.httpError(w, http.StatusNotFound, err.Error())
		return
	}
	s.writeJSON(w, struct {
		Host   string    `json:"host"`
		Metric string    `json:"metric"`
		Times  []float64 `json:"times"`
		Values []float64 `json:"values"`
	}{host, metric, series.Times, series.Values})
}

func (s *Server) handleOmniJobs(w http.ResponseWriter, r *http.Request) {
	s.m.Requests.Inc()
	store := s.omniStore(w)
	if store == nil {
		return
	}
	id := r.URL.Query().Get("id")
	if id == "" {
		s.writeJSON(w, struct {
			Jobs []string `json:"jobs"`
		}{store.Jobs()})
		return
	}
	job, err := store.Job(id)
	if err != nil {
		s.httpError(w, http.StatusNotFound, err.Error())
		return
	}
	energy, _ := store.JobEnergy(id)
	s.writeJSON(w, struct {
		ID      string   `json:"id"`
		User    string   `json:"user,omitempty"`
		App     string   `json:"app,omitempty"`
		Nodes   []string `json:"nodes"`
		StartS  float64  `json:"start_s"`
		EndS    float64  `json:"end_s"`
		EnergyJ float64  `json:"energy_j"`
	}{job.ID, job.User, job.App, job.Nodes, job.Start, job.End, energy})
}

// ---- /v1/telemetry ----

func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	s.m.Requests.Inc()
	if s.cfg.Hub == nil {
		s.httpError(w, http.StatusNotFound, "telemetry hub not enabled on this server")
		return
	}
	q := r.URL.Query()
	host := q.Get("host")
	if host == "" {
		s.httpError(w, http.StatusBadRequest, "host query parameter is required")
		return
	}
	sub, attached, err := s.telem.sub(host, q.Get("domain"))
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	type sampleJSON struct {
		Domain string  `json:"domain"`
		T      float64 `json:"t"`
		Watts  float64 `json:"watts"`
	}
	out := struct {
		Host     string       `json:"host"`
		Domain   string       `json:"domain,omitempty"`
		Attached bool         `json:"attached"` // true on the ring-creating call
		Dropped  uint64       `json:"dropped"`
		Samples  []sampleJSON `json:"samples"`
	}{Host: host, Domain: q.Get("domain"), Attached: attached, Samples: []sampleJSON{}}
	for {
		smp, ok := sub.TryNext()
		if !ok {
			break
		}
		out.Samples = append(out.Samples, sampleJSON{string(smp.Domain), smp.T, smp.Watts})
	}
	out.Dropped = sub.Dropped()
	s.writeJSON(w, out)
}

// ---- /healthz ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	entries, aliases := s.cache.Len()
	s.writeJSON(w, struct {
		Status       string  `json:"status"`
		UptimeS      float64 `json:"uptime_s"`
		InFlight     int64   `json:"in_flight"`
		CacheEntries int     `json:"cache_entries"`
		CacheAliases int     `json:"cache_aliases"`
	}{"ok", time.Since(s.started).Seconds(), s.limiter.InFlight(), entries, aliases})
}

// writeJSON writes v as a 200 JSON response (uncached endpoints).
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header()["Content-Type"] = jsonCT
	w.Write(append(b, '\n'))
}
