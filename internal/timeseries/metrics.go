package timeseries

import (
	"sync/atomic"

	"vasppower/internal/obs"
)

// Metrics counts the work of the trace hot path across the process.
// SumSegments is the number of output segments Sum has emitted (the
// unit of the k-way merge's inner loop); a measurement merges no
// trace, since a node records its sensors with its components, so only
// the telemetry pipeline's summed power scopes count here. Samples is
// the number of samples Sample and SampleWindow have produced: every
// figure regenerates by sampling recorded traces. Install with
// SetMetrics; the nil default costs one atomic pointer load per call.
type Metrics struct {
	SumSegments *obs.Counter
	Samples     *obs.Counter
}

// NewMetrics registers the trace-pipeline metric set under
// "timeseries." in reg. A nil registry yields a usable all-no-op
// Metrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		SumSegments: reg.Counter("timeseries.sum_segments"),
		Samples:     reg.Counter("timeseries.samples"),
	}
}

var metrics atomic.Pointer[Metrics]

// SetMetrics installs (or, with nil, removes) the process-wide trace
// metrics. Install once at startup, before experiments run.
func SetMetrics(m *Metrics) { metrics.Store(m) }

// countSumSegments records n output segments from one Sum call.
func countSumSegments(n int) {
	if m := metrics.Load(); m != nil {
		m.SumSegments.Add(int64(n))
	}
}

// countSamples records n samples emitted by one sampling call.
func countSamples(n int) {
	if m := metrics.Load(); m != nil {
		m.Samples.Add(int64(n))
	}
}
