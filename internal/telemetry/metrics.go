package telemetry

import "vasppower/internal/obs"

// Metrics counts a Hub's stream traffic. Published counts samples
// delivered to at least one subscriber; Dropped counts ring-buffer
// evictions (slow subscribers); and Subscriptions counts Subscribe
// calls. Pass it to NewHub; the counters land in the run manifest
// through the registry snapshot, so a run's drop process is part of
// its record.
type Metrics struct {
	Published     *obs.Counter
	Dropped       *obs.Counter
	Subscriptions *obs.Counter
}

// NewMetrics registers the stream metric set under "telemetry." in reg.
// A nil registry yields a usable all-no-op Metrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Published:     reg.Counter("telemetry.published"),
		Dropped:       reg.Counter("telemetry.dropped"),
		Subscriptions: reg.Counter("telemetry.subscriptions"),
	}
}
