package telemetry

import (
	"fmt"
	"math"
	"sync"

	"vasppower/internal/hw/node"
	"vasppower/internal/timeseries"
)

// Sampler turns node traces into a sample stream. Unregistering a host
// emits one sample per (whole interval, domain) pair of its trace, plus
// the tail, through resumable segment cursors, so the walk is linear in
// the trace's segments. Window k of a registration is
// [k·interval, (k+1)·interval] in trace time, emitted once its end is
// at or before the trace end, compared exactly; the instants are
// computed from the window index, as Trace.Sample computes them.
//
// Stream time is per-host monotone across registrations: when a host
// name is unregistered and later re-registered (the next repeat of a
// sweep reuses "nid000001"), its stream clock resumes where it left
// off, so downstream consumers — the Prometheus exporter's joules
// counters, an omni streaming insert — see strictly increasing time
// per host.
type Sampler struct {
	hub      *Hub
	interval float64

	mu     sync.Mutex
	hosts  map[string]*hostState
	clocks map[string]float64 // stream seconds already emitted per host name
}

type hostState struct {
	n       *node.Node
	offset  float64 // stream time of the trace's origin
	cursors map[node.Domain]*timeseries.Cursor
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
	return &Sampler{
		hub:      hub,
		interval: interval,
		hosts:    make(map[string]*hostState),
		clocks:   make(map[string]float64),
	}, nil
}

// Register starts sampling a node under the given host name. Samples
// already emitted under the same name (a previous registration) push
// this registration's stream clock forward; the node's trace is read
// from its current start, so register nodes with freshly reset traces.
func (s *Sampler) Register(host string, n *node.Node) error {
	if host == "" || n == nil {
		return fmt.Errorf("telemetry: empty host or nil node")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.hosts[host]; ok {
		return fmt.Errorf("telemetry: host %q already registered", host)
	}
	hs := &hostState{
		n:       n,
		offset:  s.clocks[host],
		cursors: make(map[node.Domain]*timeseries.Cursor, 4),
	}
	for _, d := range node.Domains() {
		hs.cursors[d] = timeseries.NewCursor(n.DomainTrace(d))
	}
	s.hosts[host] = hs
	return nil
}

// Unregister stops sampling a host: any partial-interval tail of its
// trace is flushed as one final (shorter) sample, the host's stream
// clock is checkpointed for a future re-registration, and the host is
// removed. Errors on unknown hosts.
func (s *Sampler) Unregister(host string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs, ok := s.hosts[host]
	if !ok {
		return fmt.Errorf("telemetry: host %q not registered", host)
	}
	dur, pos := hs.n.TraceDuration(), 0.0
	for k := 1; float64(k)*s.interval <= dur; k++ {
		end := float64(k) * s.interval
		s.emitLocked(host, hs, pos, end)
		pos = end
	}
	if dur > pos {
		s.emitLocked(host, hs, pos, dur)
		pos = dur
	}
	s.clocks[host] = hs.offset + pos
	delete(s.hosts, host)
	return nil
}

// emitLocked publishes one window [a, b] across all domains. Domains
// are emitted in decomposition order (gpu, memory, module, node), so a
// scope-"" subscriber sees each timestamp's full breakdown together.
func (s *Sampler) emitLocked(host string, hs *hostState, a, b float64) {
	for _, d := range node.Domains() {
		s.hub.Publish(Sample{
			Host:   host,
			Domain: d,
			T:      hs.offset + b,
			Watts:  hs.cursors[d].MeanBetween(a, b),
		})
	}
}

// PublishRun streams a completed run's traces: each node is registered
// (under its own name), fully drained, and unregistered, advancing the
// per-host stream clocks. Nodes already registered are skipped (they
// are being sampled live). This is the hook the workload layer calls
// after every run whose spec carries a sampler.
func (s *Sampler) PublishRun(nodes []*node.Node) {
	for _, n := range nodes {
		if n == nil {
			continue
		}
		s.mu.Lock()
		_, live := s.hosts[n.Name]
		s.mu.Unlock()
		if live {
			continue
		}
		if err := s.Register(n.Name, n); err != nil {
			continue
		}
		_ = s.Unregister(n.Name) // Unregister drains and flushes the tail
	}
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
