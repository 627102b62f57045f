package telemetry

import (
	"fmt"
	"math"
	"sync"

	"vasppower/internal/hw/node"
	"vasppower/internal/timeseries"
)

// Sampler turns completed runs' node traces into a sample stream.
// PublishRun emits, per node, one sample per (whole interval, domain)
// pair of its trace, plus the tail, through resumable segment cursors,
// so the walk is linear in the trace's segments. A trace's window k is
// [k·interval, (k+1)·interval] in trace time, emitted once its end is
// at or before the trace end, compared exactly; the instants are
// computed from the window index, as Trace.Sample computes them.
//
// Stream time is per-host monotone across runs: when a later run
// publishes a node under a host name already seen (the next repeat of
// a sweep reuses "nid000001"), that host's stream clock resumes where
// the last run left it, so downstream consumers — the Prometheus
// exporter's joules counters, an omni streaming insert — see strictly
// increasing time per host.
type Sampler struct {
	hub      *Hub
	interval float64

	mu     sync.Mutex
	clocks map[string]float64 // stream seconds already emitted per host name
}

// NewSampler returns a sampler publishing into hub every interval
// seconds of trace time.
func NewSampler(hub *Hub, interval float64) (*Sampler, error) {
	if hub == nil {
		return nil, fmt.Errorf("telemetry: nil hub")
	}
	if !(interval > 0) || math.IsInf(interval, 1) { // rejects NaN too
		return nil, fmt.Errorf("telemetry: sample interval %v, want finite > 0", interval)
	}
	return &Sampler{hub: hub, interval: interval, clocks: make(map[string]float64)}, nil
}

// PublishRun streams a completed run's traces: each node's trace,
// read from its start, is published whole under the node's name,
// partial-interval tail included, and that host's stream clock
// advances past it. Nil and unnamed nodes are skipped. A node is
// published under the sampler's lock, so concurrent runs on one host
// name each publish all of their samples, one run after another. This
// is the hook the workload layer calls after every run whose spec
// carries a sampler.
func (s *Sampler) PublishRun(nodes []*node.Node) {
	for _, n := range nodes {
		if n != nil && n.Name != "" {
			s.publishNode(n)
		}
	}
}

// publishNode emits n's windows across all domains. Domains are
// emitted in decomposition order (gpu, memory, module, node), so a
// scope-"" subscriber sees each timestamp's full breakdown together.
func (s *Sampler) publishNode(n *node.Node) {
	domains := node.Domains()
	var cursors [4]*timeseries.Cursor
	for i, d := range domains {
		cursors[i] = timeseries.NewCursor(n.DomainTrace(d))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	offset := s.clocks[n.Name]
	emit := func(a, b float64) {
		for i, d := range domains {
			s.hub.Publish(Sample{Host: n.Name, Domain: d, T: offset + b, Watts: cursors[i].MeanBetween(a, b)})
		}
	}
	dur, pos := n.TraceDuration(), 0.0
	for k := 1; float64(k)*s.interval <= dur; k++ {
		end := float64(k) * s.interval
		emit(pos, end)
		pos = end
	}
	if dur > pos {
		emit(pos, dur)
		pos = dur
	}
	s.clocks[n.Name] = offset + pos
}

// SampleStore is the streaming-insert surface of a telemetry database
// (omni.Store implements it).
type SampleStore interface {
	InsertSample(host, metric string, t, v float64) error
}

// Pump drains a subscription into a store until the subscription is
// closed, mapping each sample to metric "power.<domain>" (distinct
// from the batch pipeline's Cray PM metric names — "memory" there is
// host DDR, "power.memory" here is HBM). Returns the number of samples
// stored and the first insert error, if any; inserts continue past
// errors so a single out-of-order sample cannot wedge the stream.
func Pump(sub *Subscription, st SampleStore) (int, error) {
	count := 0
	var firstErr error
	for {
		smp, ok := sub.Next()
		if !ok {
			return count, firstErr
		}
		err := st.InsertSample(smp.Host, "power."+string(smp.Domain), smp.T, smp.Watts)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		count++
	}
}
