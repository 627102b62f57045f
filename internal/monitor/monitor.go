// Package monitor models the telemetry pipeline of §II-B: the Cray
// Power Monitoring counters exposed on every compute node, sampled by
// LDMS at a nominal 1-second interval and forwarded to the OMNI data
// store. The aggregate data rate forces samples to be dropped in
// flight, leaving an effective 2-second interval — both the nominal
// rate and the drop process are modeled, because Fig. 2's
// sampling-granularity study depends on them.
package monitor

import (
	"fmt"
	"math"

	"vasppower/internal/hw/node"
	"vasppower/internal/rng"
	"vasppower/internal/timeseries"
)

// Config describes one sampling pipeline.
type Config struct {
	// Interval is the nominal sampling interval in seconds.
	Interval float64
	// DropProb is the probability that any individual sample is lost
	// in the ingest pipeline (independently per sample).
	DropProb float64
	// Seed drives the drop process (ignored when DropProb is 0).
	Seed uint64
}

// LDMSDefault returns the production pipeline: 1 s nominal sampling
// with half the samples dropped — an effective 2 s interval, matching
// the paper's data.
func LDMSDefault() Config { return Config{Interval: 1.0, DropProb: 0.5, Seed: 1} }

// HighRate returns the 0.1 s lossless configuration used for the
// paper's sampling-rate study (Fig. 2).
func HighRate() Config { return Config{Interval: 0.1} }

// Validate checks the configuration. The comparisons are phrased so
// NaN fails them: NaN < x and NaN >= x are both false, so a naive
// `Interval <= 0` check waves NaN through.
func (c Config) Validate() error {
	if !(c.Interval > 0) || math.IsInf(c.Interval, 0) {
		return fmt.Errorf("monitor: interval %v, want finite > 0", c.Interval)
	}
	if math.IsNaN(c.DropProb) || c.DropProb < 0 || c.DropProb >= 1 {
		return fmt.Errorf("monitor: drop probability %v out of [0,1)", c.DropProb)
	}
	return nil
}

// Sample reads one power trace through the pipeline: window-averaged
// at the nominal interval (the PM counters accumulate energy between
// polls, so each sample is the true mean over its window), then
// subjected to the drop process.
func Sample(tr *timeseries.Trace, cfg Config) (timeseries.Series, error) {
	if err := cfg.Validate(); err != nil {
		return timeseries.Series{}, err
	}
	s := tr.Sample(cfg.Interval)
	if cfg.DropProb > 0 {
		r := rng.New(cfg.Seed)
		s = s.Drop(func(i int) bool { return !r.Bool(cfg.DropProb) })
	}
	return s, nil
}

// Component metric names, matching the Cray PM counter layout.
const (
	MetricNode   = "node"
	MetricCPU    = "cpu"
	MetricMemory = "memory"
)

// Metrics lists all per-node metric names for a node carrying the
// given number of GPUs.
func Metrics(gpus int) []string {
	out := []string{MetricNode, MetricCPU, MetricMemory}
	for i := 0; i < gpus; i++ {
		out = append(out, GPUMetric(i))
	}
	return out
}

// GPUMetric returns the metric name for GPU i.
func GPUMetric(i int) string {
	if i < 0 {
		panic(fmt.Sprintf("monitor: gpu index %d", i))
	}
	return fmt.Sprintf("gpu%d", i)
}

// SampleNode reads all of a node's sensors through the pipeline,
// returning series keyed by metric name. Distinct metrics use
// decorrelated drop streams (drops are per-sampler in LDMS), derived
// from the node name so re-sampling is reproducible.
//
// Metrics are read in the deterministic Metrics(n.NumGPUs()) order —
// not Go's randomized map order — so telemetry emitted while sampling
// (spans, timeseries.* counters) appears in a stable order across
// runs. The results themselves were always order-independent: each
// metric's drop stream is derived by label, not by draw order.
func SampleNode(n *node.Node, cfg Config) (map[string]timeseries.Series, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	traces := map[string]*timeseries.Trace{
		MetricNode:   n.TotalTrace(),
		MetricCPU:    n.CPUTrace(),
		MetricMemory: n.MemTrace(),
	}
	for i := 0; i < n.NumGPUs(); i++ {
		traces[GPUMetric(i)] = n.GPUTrace(i)
	}
	out := make(map[string]timeseries.Series, len(traces))
	root := rng.New(cfg.Seed).Split(n.Name)
	for _, metric := range Metrics(n.NumGPUs()) {
		c := cfg
		if c.DropProb > 0 {
			c.Seed = root.Split(metric).Uint64()
		}
		s, err := Sample(traces[metric], c)
		if err != nil {
			return nil, err
		}
		out[metric] = s
	}
	return out, nil
}
