package timeseries

import (
	"sync/atomic"

	"vasppower/internal/obs"
)

// Metrics counts the work of the trace hot path across the process.
// Samples is the number of samples Sample and SampleWindow have
// produced: every figure regenerates by sampling recorded traces.
// Install with SetMetrics; the nil default costs one atomic pointer
// load per call.
type Metrics struct {
	Samples *obs.Counter
}

// NewMetrics registers the trace-pipeline metric set under
// "timeseries." in reg. A nil registry yields a usable all-no-op
// Metrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{Samples: reg.Counter("timeseries.samples")}
}

var metrics atomic.Pointer[Metrics]

// SetMetrics installs (or, with nil, removes) the process-wide trace
// metrics. Install once at startup, before experiments run.
func SetMetrics(m *Metrics) { metrics.Store(m) }

// countSamples records n samples emitted by one sampling call.
func countSamples(n int) {
	if m := metrics.Load(); m != nil {
		m.Samples.Add(int64(n))
	}
}
