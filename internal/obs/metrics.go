package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic int64. All methods are
// safe on a nil receiver (they no-op / return zero), which is how
// instrumented code stays zero-cost when observability is off.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic int64 level (queue depths, pool
// sizes). Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// SetMax raises the level to v if v is higher, atomically: of any
// set of concurrent SetMax calls the highest value stays, which a
// Value-then-Set pair cannot promise.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if v <= old || g.v.CompareAndSwap(old, v) {
			return
		}
	}
}

// Add moves the level by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current level (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: observations are counted into
// the first bucket whose upper bound is >= the value, with an implicit
// +Inf overflow bucket, plus a total count and sum. Nil-safe.
type Histogram struct {
	bounds []float64      // sorted upper bounds, one per finite bucket
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Registry is a named collection of metrics. Lookups are get-or-create
// and safe for concurrent use; a nil registry hands out nil metrics,
// so the whole chain no-ops when observability is off.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the existing
// buckets regardless of the bounds argument).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations at or below LE (non-cumulative; LE is +Inf-encoded as
// the JSON string "inf" would be lossy, so the overflow bucket is
// reported under the Overflow field of HistogramSnapshot instead).
type BucketCount struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count    int64         `json:"count"`
	Sum      float64       `json:"sum"`
	Buckets  []BucketCount `json:"buckets,omitempty"`
	Overflow int64         `json:"overflow,omitempty"` // observations above the last bound
}

// Snapshot is a point-in-time copy of every metric in a registry,
// shaped for JSON (the manifest's metrics section and /debug/vars).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Individual metric
// reads are atomic; the snapshot as a whole is not (concurrent writers
// may land between reads), which is fine for reporting. A nil registry
// yields the zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
			for i, le := range h.bounds {
				hs.Buckets = append(hs.Buckets, BucketCount{LE: le, Count: h.counts[i].Load()})
			}
			hs.Overflow = h.counts[len(h.bounds)].Load()
			s.Histograms[name] = hs
		}
	}
	return s
}
