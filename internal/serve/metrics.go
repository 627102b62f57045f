package serve

import "vasppower/internal/obs"

// Metrics is the serving layer's ledger, registered under "serve." so
// powerd's run manifest records the request mix the same way it
// records cache and scheduler traffic. Every endpoint except /healthz
// (which liveness probes would otherwise dominate) lands in Requests.
// On the cached endpoints each request then scores Hits (served from
// pre-serialized bytes, found by verbatim body or, after admission, by
// canonical key), Misses (admitted into evaluation), Shed
// (refused at admission), or Errors (rejected by validation, or
// failed — a miss whose evaluation fails counts in both Misses and
// Errors). Coalesced counts the misses that joined another caller's
// in-flight evaluation instead of running their own — the
// singleflight dividend under concurrent identical load.
type Metrics struct {
	Requests  *obs.Counter
	Hits      *obs.Counter
	Misses    *obs.Counter
	Coalesced *obs.Counter
	Shed      *obs.Counter
	Errors    *obs.Counter
	Timeouts  *obs.Counter

	// InFlight is the admission semaphore's current weight; QueueDepth
	// counts callers blocked waiting for admission.
	InFlight   *obs.Gauge
	QueueDepth *obs.Gauge

	// LatencyMS is the full request-handling distribution (hits and
	// misses together; the bimodality is the point — µs hits next to
	// ms..s evaluations).
	LatencyMS *obs.Histogram
}

// latencyBucketsMS spans cached hits (tens of µs) through cold sweep
// evaluations (seconds).
var latencyBucketsMS = []float64{0.01, 0.1, 1, 10, 100, 1000, 10000}

// NewMetrics registers the serving metric set under "serve." in reg.
// A nil registry yields a usable all-no-op Metrics, matching the
// repo-wide convention.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Requests:   reg.Counter("serve.requests"),
		Hits:       reg.Counter("serve.hits"),
		Misses:     reg.Counter("serve.misses"),
		Coalesced:  reg.Counter("serve.coalesced"),
		Shed:       reg.Counter("serve.shed"),
		Errors:     reg.Counter("serve.errors"),
		Timeouts:   reg.Counter("serve.timeouts"),
		InFlight:   reg.Gauge("serve.inflight"),
		QueueDepth: reg.Gauge("serve.queue_depth"),
		LatencyMS:  reg.Histogram("serve.latency_ms", latencyBucketsMS),
	}
}
