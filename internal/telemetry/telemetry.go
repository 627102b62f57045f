// Package telemetry is the streaming counterpart to the batch
// monitor→omni pipeline: a backpressure-safe publish/subscribe layer
// over the simulated cluster's power traces. A Sampler walks node
// traces with resumable segment cursors and publishes per-domain samples
// into a Hub; subscribers read from bounded ring buffers that drop
// their oldest samples when full — a slow consumer loses data, exactly
// like LDMS's real drop process (§II-B), but can never stall the
// sampler or other subscribers.
package telemetry

import (
	"fmt"
	"sync"

	"vasppower/internal/hw/node"
)

// Sample is one power reading on the stream.
type Sample struct {
	Host   string      // node name, e.g. "nid000001"
	Domain node.Domain // NVML-style scope: gpu, memory, module, node
	T      float64     // stream time, seconds (per-host monotone)
	Watts  float64
}

// Hub fans samples out to subscribers. Publish never blocks: each
// subscription owns a bounded ring and absorbs overflow by dropping
// its oldest samples, with drops counted per subscription and in the
// process-wide metrics.
type Hub struct {
	mu   sync.Mutex
	subs []*Subscription
}

// NewHub returns an empty hub.
func NewHub() *Hub { return &Hub{} }

// Subscribe registers a new subscriber. domain restricts the stream to
// one scope ("" receives every domain); capacity is the ring size —
// once full, the oldest sample is dropped per new sample. capacity
// must be positive.
func (h *Hub) Subscribe(domain node.Domain, capacity int) (*Subscription, error) {
	return h.SubscribeHost("", domain, capacity)
}

// SubscribeHost registers a subscriber whose ring receives only the
// named host's samples ("" receives every host), on top of the same
// domain scoping Subscribe applies. A host-filtered ring is how a
// per-job consumer (powerd's /v1/telemetry endpoint) follows one
// node's power without paying for — or being drowned out by — the
// rest of the cluster's stream: samples from other hosts are never
// pushed, so they can neither occupy ring slots nor count against
// this subscription's drops.
func (h *Hub) SubscribeHost(host string, domain node.Domain, capacity int) (*Subscription, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("telemetry: subscription capacity %d, want > 0", capacity)
	}
	if domain != "" && !node.ValidDomain(domain) {
		return nil, fmt.Errorf("telemetry: unknown domain scope %q", domain)
	}
	s := &Subscription{hub: h, host: host, domain: domain, buf: make([]Sample, capacity)}
	s.cond = sync.NewCond(&s.mu)
	h.mu.Lock()
	h.subs = append(h.subs, s)
	h.mu.Unlock()
	if m := metrics.Load(); m != nil {
		m.Subscriptions.Inc()
	}
	return s, nil
}

// Publish delivers one sample to every matching subscription. It never
// blocks on a slow subscriber.
func (h *Hub) Publish(smp Sample) {
	h.mu.Lock()
	subs := h.subs
	h.mu.Unlock()
	delivered := false
	for _, s := range subs {
		if (s.domain == "" || s.domain == smp.Domain) &&
			(s.host == "" || s.host == smp.Host) {
			s.push(smp)
			delivered = true
		}
	}
	if m := metrics.Load(); m != nil && delivered {
		m.Published.Inc()
	}
}

// Subscribers returns the number of live (unclosed) subscriptions.
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := 0
	for _, s := range h.subs {
		if !s.isClosed() {
			n++
		}
	}
	return n
}

// Dropped returns the total samples dropped across all subscriptions,
// including closed ones.
func (h *Hub) Dropped() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var total uint64
	for _, s := range h.subs {
		total += s.Dropped()
	}
	return total
}

// Subscription is one subscriber's bounded view of the stream: a ring
// buffer the hub pushes into and the consumer drains with Next or
// TryNext. All methods are safe for concurrent use.
type Subscription struct {
	hub    *Hub
	host   string
	domain node.Domain

	mu      sync.Mutex
	cond    *sync.Cond
	buf     []Sample // ring storage
	head    int      // index of oldest sample
	n       int      // live samples in buf
	dropped uint64
	closed  bool
}

// push enqueues one sample, evicting the oldest on overflow. Never
// blocks beyond the (short) critical section.
func (s *Subscription) push(smp Sample) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) { // full: drop oldest
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
		if m := metrics.Load(); m != nil {
			m.Dropped.Inc()
		}
	}
	s.buf[(s.head+s.n)%len(s.buf)] = smp
	s.n++
	s.mu.Unlock()
	s.cond.Signal()
}

// Next blocks until a sample is available and returns it, or returns
// ok=false once the subscription is closed and drained.
func (s *Subscription) Next() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 && !s.closed {
		s.cond.Wait()
	}
	if s.n == 0 {
		return Sample{}, false
	}
	return s.popLocked(), true
}

// TryNext returns the next sample without blocking; ok=false means the
// ring is currently empty (the subscription may still be open).
func (s *Subscription) TryNext() (Sample, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return Sample{}, false
	}
	return s.popLocked(), true
}

func (s *Subscription) popLocked() Sample {
	smp := s.buf[s.head]
	s.head = (s.head + 1) % len(s.buf)
	s.n--
	return smp
}

// Len returns the number of buffered samples.
func (s *Subscription) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped returns how many samples this subscriber has lost to
// overflow.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close ends the subscription: publishers stop delivering to it and a
// blocked Next returns once the buffer drains. Idempotent.
func (s *Subscription) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

func (s *Subscription) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}
