// Package serve is the long-running HTTP front end of the measurement
// engine: the routing → admission → coalesce → batch → compute → cache
// pipeline behind cmd/powerd.
//
// The design mirrors an inference-serving stack. Requests route to
// JSON endpoints (/v1/measure, /v1/sweep, /v1/schedule, /v1/omni/...,
// /v1/telemetry, /healthz); an admission limiter (weighted semaphore,
// bounded queue, 429 + Retry-After on saturation) protects evaluation
// capacity; identical concurrent requests coalesce onto one
// evaluation; sweeps decompose into per-point work items micro-batched
// across requests; results serialize once into a response cache of
// canonical JSON bytes, after which the warm path performs zero
// parsing, zero encoding, and zero allocation per request.
//
// Invariants the pipeline maintains:
//
//   - a warm hit bypasses admission entirely (it evaluates nothing);
//   - for one canonical request identity, at most one evaluation and
//     one JSON encoding are in flight at any moment;
//   - responses are byte-deterministic: the same spec always yields
//     the same bytes, which is what makes caching them sound and lets
//     CI diff a served response against the CLI's -oneshot output;
//   - error responses are never cached;
//   - telemetry (serve.* metrics) never influences response bytes.
package serve

import (
	"bytes"
	"net/http"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/obs"
	"vasppower/internal/omni"
	"vasppower/internal/telemetry"
)

// Config assembles a Server. The zero value works: every knob has a
// serving-grade default, evaluation runs through the measurement
// package's default run environment, and metrics are no-ops until a registry
// is supplied.
type Config struct {
	// Measure evaluates one spec; nil means
	// experiments.CachedMeasureSpec (the default run environment).
	// powerd passes its own Env's Measure; tests inject counters and
	// gates here.
	Measure func(core.MeasureSpec) (core.JobProfile, error)
	// MeasureGroup evaluates one spec at several cap points through a
	// shared incremental sweep context. It defaults to
	// experiments.CachedMeasureGroup only when Measure is also
	// defaulted; a test injecting Measure keeps the per-point path
	// unless it supplies its own group function.
	MeasureGroup func(core.MeasureSpec, []float64) ([]core.JobProfile, error)
	// Workers bounds each batch window's fan-out pool (0 = one per
	// CPU).
	Workers int
	// MaxInFlight is the admission capacity in weight units (a measure
	// or schedule request weighs 1–2; a sweep weighs its point count).
	// 0 = DefaultMaxInFlight.
	MaxInFlight int
	// MaxQueue bounds callers waiting for admission; beyond it
	// requests are shed with 429. 0 = DefaultMaxQueue. Use -1 for an
	// actually-zero queue (shed the moment capacity is full).
	MaxQueue int
	// Timeout bounds one measure evaluation; SweepTimeout and
	// ScheduleTimeout bound their endpoints. 0 = defaults.
	Timeout         time.Duration
	SweepTimeout    time.Duration
	ScheduleTimeout time.Duration
	// MaxSweepPoints rejects oversized sweeps up front (0 =
	// DefaultMaxSweepPoints).
	MaxSweepPoints int
	// MaxScheduleJobs bounds one what-if run's synthetic mix (0 =
	// DefaultMaxScheduleJobs).
	MaxScheduleJobs int
	// BatchWindow is the sweep micro-batch window (0 =
	// DefaultBatchWindow; negative = flush every submission
	// immediately, which unit tests use).
	BatchWindow time.Duration
	// CacheEntries bounds the response cache (canonical entries and
	// body aliases each; 0 = DefaultCacheEntries).
	CacheEntries int
	// Reg receives the serve.* metrics (nil = no-op metrics).
	Reg *obs.Registry
	// Store, when set, backs the read-only /v1/omni endpoints.
	Store *omni.Store
	// Hub, when set, backs /v1/telemetry with lazily attached
	// host-filtered subscriptions.
	Hub *telemetry.Hub
	// TelemetryRing is each per-host telemetry ring's capacity (0 =
	// DefaultTelemetryRing).
	TelemetryRing int
}

// Serving-grade defaults; see Config.
const (
	DefaultMaxInFlight     = 64
	DefaultMaxQueue        = 256
	DefaultTimeout         = 30 * time.Second
	DefaultSweepTimeout    = 5 * time.Minute
	DefaultScheduleTimeout = 5 * time.Minute
	DefaultMaxSweepPoints  = 4096
	DefaultMaxScheduleJobs = 100000
	DefaultBatchWindow     = 2 * time.Millisecond
	DefaultCacheEntries    = 1 << 16
	DefaultTelemetryRing   = 4096
)

func (c Config) withDefaults() Config {
	if c.Measure == nil {
		c.Measure = experiments.CachedMeasureSpec
		if c.MeasureGroup == nil {
			c.MeasureGroup = experiments.CachedMeasureGroup
		}
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = DefaultMaxInFlight
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = DefaultMaxQueue
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
	}
	if c.SweepTimeout <= 0 {
		c.SweepTimeout = DefaultSweepTimeout
	}
	if c.ScheduleTimeout <= 0 {
		c.ScheduleTimeout = DefaultScheduleTimeout
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = DefaultMaxSweepPoints
	}
	if c.MaxScheduleJobs <= 0 {
		c.MaxScheduleJobs = DefaultMaxScheduleJobs
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = DefaultBatchWindow
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.TelemetryRing <= 0 {
		c.TelemetryRing = DefaultTelemetryRing
	}
	return c
}

// Server holds the pipeline's state. Build with New, mount with Mount
// (or serve its Handler directly), and drain by shutting down the
// enclosing http.Server — the Server itself keeps no listener.
type Server struct {
	cfg     Config
	m       *Metrics
	cache   *respCache
	limiter *Limiter
	batcher *Batcher
	mux     *http.ServeMux
	started time.Time

	telem telemetryRings
}

// New assembles the pipeline.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics(cfg.Reg)
	s := &Server{
		cfg:     cfg,
		m:       m,
		cache:   newRespCache(cfg.CacheEntries),
		limiter: NewLimiter(int64(cfg.MaxInFlight), cfg.MaxQueue, m),
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	window := cfg.BatchWindow
	if window < 0 {
		window = 0
	}
	s.batcher = NewBatcher(cfg.Measure, cfg.MeasureGroup, measureCanonKey, window, cfg.Workers, m)
	s.telem.init(cfg.Hub, cfg.TelemetryRing)

	s.mux.HandleFunc("/v1/measure", s.handleMeasure)
	s.mux.HandleFunc("/v1/sweep", s.handleSweep)
	s.mux.HandleFunc("/v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("/v1/omni/hosts", s.handleOmniHosts)
	s.mux.HandleFunc("/v1/omni/query", s.handleOmniQuery)
	s.mux.HandleFunc("/v1/omni/jobs", s.handleOmniJobs)
	s.mux.HandleFunc("/v1/telemetry", s.handleTelemetry)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// appendMeasureCanonKey appends measureCanonKey(spec) to dst without
// allocating — the form the sweep hashing path and the batcher's
// group keying use.
func appendMeasureCanonKey(dst []byte, spec core.MeasureSpec) []byte {
	dst = append(dst, "measure|"...)
	return experiments.AppendSpecKey(dst, spec)
}

// measureCanonKey is the canonical identity shared with the memo
// tiers, prefixed per endpoint so a sweep key can never collide with
// a measure key. The key is built in a pooled buffer, so the only
// allocation is the returned string itself.
func measureCanonKey(spec core.MeasureSpec) string {
	bp := getBuf()
	*bp = appendMeasureCanonKey((*bp)[:0], spec)
	key := string(*bp)
	putBuf(bp)
	return key
}

// Handler returns the endpoint mux (the /v1/* tree plus /healthz).
func (s *Server) Handler() http.Handler { return s.mux }

// Mount registers every endpoint pattern on an external mux-like
// surface — obs.DebugServer in powerd, so the API, pprof,
// /debug/vars, and /metrics share one listener.
func (s *Server) Mount(h interface {
	Handle(pattern string, handler http.Handler)
}) {
	for _, p := range []string{
		"/v1/measure", "/v1/sweep", "/v1/schedule",
		"/v1/omni/hosts", "/v1/omni/query", "/v1/omni/jobs",
		"/v1/telemetry", "/healthz",
	} {
		h.Handle(p, s.mux)
	}
}

// Metrics returns the server's metric set (for tests and monitoring).
func (s *Server) Metrics() *Metrics { return s.m }

// OneShot dispatches one request through the full pipeline without a
// listener and returns the status code and response body. It is the
// CLI's -oneshot mode: because responses are byte-deterministic, CI
// can diff this output against the same request served over HTTP.
func (s *Server) OneShot(method, target string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		return http.StatusBadRequest, []byte(err.Error())
	}
	w := &memoryResponseWriter{h: make(http.Header, 4)}
	s.mux.ServeHTTP(w, req)
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.status, w.body.Bytes()
}

// memoryResponseWriter captures a response in memory for OneShot.
type memoryResponseWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (w *memoryResponseWriter) Header() http.Header         { return w.h }
func (w *memoryResponseWriter) WriteHeader(code int)        { w.status = code }
func (w *memoryResponseWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
