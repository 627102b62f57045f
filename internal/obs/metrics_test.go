package obs

import (
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	// Every recorder must no-op on nil: this is the zero-cost-when-off
	// contract the hot paths rely on.
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", []float64{1})
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil metrics: %v %v %v", c, g, h)
	}
	c.Add(1)
	c.Inc()
	g.SetMax(4)
	g.Add(1)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metrics reported nonzero values")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil || s.Histograms != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}

	var o *Obs
	if o.Reg() != nil {
		t.Fatal("nil Obs returned a registry")
	}
	sp := o.Span("x")
	sp.Set("k", 1).Set("j", 2)
	sp.End() // must not panic
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same name yielded distinct counters")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("same name yielded distinct gauges")
	}
	if r.Histogram("a", []float64{1, 2}) != r.Histogram("a", nil) {
		t.Fatal("same name yielded distinct histograms")
	}
}

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
}

// TestGaugeSetMaxConcurrent races many SetMax calls, goroutine w
// offering w, w+workers, w+2·workers, ... (ascending for even w,
// descending for odd w), and requires the true maximum to survive.
func TestGaugeSetMaxConcurrent(t *testing.T) {
	g := NewRegistry().Gauge("peak")
	g.Add(-1)
	const workers, per = 16, 2000
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			for i := 0; i < per; i++ {
				k := i
				if w%2 == 1 {
					k = per - 1 - i
				}
				g.SetMax(int64(w + k*workers))
			}
		}(w)
	}
	start.Done()
	wg.Wait()
	const want = workers*per - 1
	if got := g.Value(); got != want {
		t.Fatalf("gauge = %d after concurrent SetMax, want the maximum %d", got, want)
	}
	g.SetMax(3)
	if g.Value() != want {
		t.Fatal("SetMax lowered the gauge")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+5+50+500; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	s := r.Snapshot().Histograms["h"]
	wantCounts := []int64{2, 1, 1} // (≤1): 0.5 and 1; (≤10): 5; (≤100): 50
	for i, b := range s.Buckets {
		if b.Count != wantCounts[i] {
			t.Fatalf("bucket le=%v count = %d, want %d", b.LE, b.Count, wantCounts[i])
		}
	}
	if s.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1 (the 500)", s.Overflow)
	}
}

func TestSnapshotCopies(t *testing.T) {
	r := NewRegistry()
	r.Counter("n").Add(7)
	r.Gauge("q").SetMax(3)
	s := r.Snapshot()
	if s.Counters["n"] != 7 || s.Gauges["q"] != 3 {
		t.Fatalf("snapshot = %+v", s)
	}
	r.Counter("n").Add(1)
	if s.Counters["n"] != 7 {
		t.Fatal("snapshot aliased live counter")
	}
}
