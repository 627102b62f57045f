package telemetry

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/obs"
)

func TestSubscribeValidation(t *testing.T) {
	h := NewHub()
	if _, err := h.Subscribe("", 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := h.Subscribe("board", 8); err == nil {
		t.Fatal("unknown domain accepted")
	}
	if _, err := h.Subscribe(node.DomainGPU, 8); err != nil {
		t.Fatal(err)
	}
}

func TestRingDropsOldest(t *testing.T) {
	h := NewHub()
	sub, err := h.Subscribe("", 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: float64(i), Watts: 1})
	}
	if got := sub.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	// The two oldest samples (T=0,1) were evicted.
	for want := 2.0; want < 5; want++ {
		smp, ok := sub.TryNext()
		if !ok || smp.T != want {
			t.Fatalf("got (%v,%v), want sample T=%v", smp.T, ok, want)
		}
	}
	if _, ok := sub.TryNext(); ok {
		t.Fatal("ring should be drained")
	}
	if got := h.Dropped(); got != 2 {
		t.Fatalf("hub Dropped = %d, want 2", got)
	}
}

func TestDomainScope(t *testing.T) {
	h := NewHub()
	gpuOnly, _ := h.Subscribe(node.DomainGPU, 8)
	all, _ := h.Subscribe("", 8)
	h.Publish(Sample{Host: "n", Domain: node.DomainGPU, T: 1, Watts: 100})
	h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: 1, Watts: 500})
	if got := gpuOnly.Len(); got != 1 {
		t.Fatalf("scoped subscriber buffered %d, want 1", got)
	}
	if got := all.Len(); got != 2 {
		t.Fatalf("unscoped subscriber buffered %d, want 2", got)
	}
	smp, _ := gpuOnly.TryNext()
	if smp.Domain != node.DomainGPU || smp.Watts != 100 {
		t.Fatalf("scoped subscriber got %+v", smp)
	}
}

func TestHostScope(t *testing.T) {
	h := NewHub()
	one, err := h.SubscribeHost("nid000001", "", 8)
	if err != nil {
		t.Fatalf("SubscribeHost: %v", err)
	}
	oneGPU, _ := h.SubscribeHost("nid000001", node.DomainGPU, 8)
	all, _ := h.Subscribe("", 8)
	if one.host != "nid000001" || all.host != "" {
		t.Fatalf("host scope = %q / %q", one.host, all.host)
	}
	h.Publish(Sample{Host: "nid000001", Domain: node.DomainGPU, T: 1, Watts: 100})
	h.Publish(Sample{Host: "nid000001", Domain: node.DomainNode, T: 1, Watts: 900})
	h.Publish(Sample{Host: "nid000002", Domain: node.DomainGPU, T: 1, Watts: 300})
	h.Publish(Sample{Host: "nid000002", Domain: node.DomainNode, T: 1, Watts: 950})
	if got := one.Len(); got != 2 {
		t.Fatalf("host-scoped subscriber buffered %d, want 2", got)
	}
	if got := oneGPU.Len(); got != 1 {
		t.Fatalf("host+domain-scoped subscriber buffered %d, want 1", got)
	}
	if got := all.Len(); got != 4 {
		t.Fatalf("unscoped subscriber buffered %d, want 4", got)
	}
	// The filtered ring never sees other hosts' samples — drain it
	// fully and check every sample's host.
	for {
		smp, ok := one.TryNext()
		if !ok {
			break
		}
		if smp.Host != "nid000001" {
			t.Fatalf("host-scoped subscriber saw %+v", smp)
		}
	}
	// Other hosts' traffic does not occupy ring slots either: flood
	// with a different host and the scoped ring drops nothing.
	for i := 0; i < 100; i++ {
		h.Publish(Sample{Host: "nid000002", Domain: node.DomainNode, T: float64(i), Watts: 1})
	}
	if got := one.Dropped(); got != 0 {
		t.Fatalf("host-scoped subscriber dropped %d under other-host flood, want 0", got)
	}
}

func TestNextBlocksUntilPublishAndClose(t *testing.T) {
	h := NewHub()
	sub, _ := h.Subscribe("", 4)
	got := make(chan Sample, 1)
	go func() {
		smp, _ := sub.Next()
		got <- smp
	}()
	time.Sleep(10 * time.Millisecond) // let the reader block
	h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: 7, Watts: 1})
	select {
	case smp := <-got:
		if smp.T != 7 {
			t.Fatalf("got T=%v", smp.T)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not wake on Publish")
	}
	// Close drains remaining samples, then reports !ok.
	h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: 8, Watts: 1})
	sub.Close()
	if smp, ok := sub.Next(); !ok || smp.T != 8 {
		t.Fatalf("close lost the buffered sample: (%v,%v)", smp.T, ok)
	}
	if _, ok := sub.Next(); ok {
		t.Fatal("Next returned ok after close+drain")
	}
	if h.Subscribers() != 0 {
		t.Fatalf("Subscribers = %d after close", h.Subscribers())
	}
}

// The core backpressure contract, run under -race in CI: a subscriber
// that sleeps between reads must never stall the publisher — the
// publisher finishes its burst regardless, shedding load as drops.
func TestSlowSubscriberNeverBlocksPublisher(t *testing.T) {
	h := NewHub()
	sub, _ := h.Subscribe("", 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, ok := sub.Next(); !ok {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	const n = 50000
	done := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: float64(i), Watts: 1})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publisher stalled behind a slow subscriber")
	}
	sub.Close()
	wg.Wait()
	if sub.Dropped() == 0 {
		t.Fatal("a sleeping subscriber under a 50k burst must drop")
	}
}

func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	SetMetrics(NewMetrics(reg))
	defer SetMetrics(nil)
	h := NewHub()
	sub, _ := h.Subscribe("", 2)
	for i := 0; i < 3; i++ {
		h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: float64(i), Watts: 1})
	}
	_ = sub
	snap := reg.Snapshot()
	if snap.Counters["telemetry.published"] != 3 {
		t.Fatalf("published = %d", snap.Counters["telemetry.published"])
	}
	if snap.Counters["telemetry.dropped"] != 1 {
		t.Fatalf("dropped = %d", snap.Counters["telemetry.dropped"])
	}
	if snap.Counters["telemetry.subscriptions"] != 1 {
		t.Fatalf("subscriptions = %d", snap.Counters["telemetry.subscriptions"])
	}
}

func testNode(t *testing.T, name string) *node.Node {
	t.Helper()
	return node.New(name, platform.Default(), nil)
}

func TestSamplerValidation(t *testing.T) {
	h := NewHub()
	if _, err := NewSampler(nil, 1); err == nil {
		t.Fatal("nil hub accepted")
	}
	for _, iv := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewSampler(h, iv); err == nil {
			t.Fatalf("interval %v accepted", iv)
		}
	}
	s, err := NewSampler(h, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	n := testNode(t, "nid001")
	if err := s.Register("", n); err == nil {
		t.Fatal("empty host accepted")
	}
	if err := s.Register("nid001", nil); err == nil {
		t.Fatal("nil node accepted")
	}
	if err := s.Register("nid001", n); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("nid001", n); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := s.Unregister("ghost"); err == nil {
		t.Fatal("unknown unregister accepted")
	}
}

func TestSamplerUnregisterFlushesTail(t *testing.T) {
	h := NewHub()
	sub, _ := h.Subscribe(node.DomainNode, 64)
	s, _ := NewSampler(h, 1.0)
	n := testNode(t, "nid001")
	_ = s.Register("nid001", n)
	n.RecordIdle(2.5)
	if err := s.Unregister("nid001"); err != nil {
		t.Fatal(err)
	}
	var times []float64
	for {
		smp, ok := sub.TryNext()
		if !ok {
			break
		}
		times = append(times, smp.T)
	}
	want := []float64{1, 2, 2.5}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if math.Abs(times[i]-want[i]) > 1e-9 {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

// TestSamplerWindowEdgesExact: window k ends at (k+1)·interval,
// computed from the index and compared with the trace end exactly. A
// trace that ends where three added intervals would overshoot (0.3 s
// at 0.1 s) gets the last window as its tail, and the host clock stops
// at the trace end; a trace one ulp past a window edge gets a tail one
// ulp long; a trace one ulp short of it gets no whole window there.
func TestSamplerWindowEdgesExact(t *testing.T) {
	stream := func(interval float64, durs ...float64) []Sample {
		h := NewHub()
		sub, _ := h.Subscribe(node.DomainNode, 64)
		s, _ := NewSampler(h, interval)
		n := testNode(t, "nid001")
		for _, d := range durs {
			n.ResetTraces()
			n.RecordIdle(d)
			_ = s.Register("nid001", n)
			if err := s.Unregister("nid001"); err != nil {
				t.Fatal(err)
			}
		}
		var out []Sample
		for {
			smp, ok := sub.TryNext()
			if !ok {
				return out
			}
			out = append(out, smp)
		}
	}
	times := func(smps []Sample) []float64 {
		var ts []float64
		for _, smp := range smps {
			ts = append(ts, smp.T)
		}
		return ts
	}
	interval, end := 0.1, 0.3
	want := []float64{interval, 2 * interval, end, end + interval, end + 2*interval, end + end}
	if got := times(stream(interval, end, end)); !slices.Equal(got, want) {
		t.Fatalf("0.3 s twice at 0.1 s: times %v, want %v", got, want)
	}
	past, short := math.Nextafter(1, 2), math.Nextafter(1, 0)
	got := stream(1, past)
	if ts := times(got); !slices.Equal(ts, []float64{1, past}) {
		t.Fatalf("one ulp past a window edge: times %v, want [1 %v]", ts, past)
	}
	if got[1].Watts != got[0].Watts {
		t.Fatalf("the one-ulp tail reads %v W, the window before it %v W", got[1].Watts, got[0].Watts)
	}
	if ts := times(stream(1, short)); !slices.Equal(ts, []float64{short}) {
		t.Fatalf("one ulp short of a window edge: times %v, want [%v]", ts, short)
	}
}

func TestSamplerClockMonotoneAcrossReregistration(t *testing.T) {
	h := NewHub()
	sub, _ := h.Subscribe(node.DomainNode, 64)
	s, _ := NewSampler(h, 1.0)
	n := testNode(t, "nid001")
	_ = s.Register("nid001", n)
	n.RecordIdle(2)
	_ = s.Unregister("nid001")
	// The next repeat reuses the host name with a fresh trace.
	n.ResetTraces()
	n.RecordIdle(3)
	_ = s.Register("nid001", n)
	_ = s.Unregister("nid001")
	var prev float64
	count := 0
	for {
		smp, ok := sub.TryNext()
		if !ok {
			break
		}
		if smp.T <= prev {
			t.Fatalf("stream time went backwards: %v after %v", smp.T, prev)
		}
		prev = smp.T
		count++
	}
	if count != 5 {
		t.Fatalf("got %d samples, want 5 (t=1..5)", count)
	}
	if math.Abs(prev-5) > 1e-9 {
		t.Fatalf("final stream time = %v, want 5", prev)
	}
}

func TestPublishRunSkipsLiveHosts(t *testing.T) {
	h := NewHub()
	sub, _ := h.Subscribe(node.DomainNode, 256)
	s, _ := NewSampler(h, 1.0)
	live := testNode(t, "nid001")
	_ = s.Register("nid001", live)
	other := testNode(t, "nid002")
	other.RecordIdle(2)
	live.RecordIdle(2)
	s.PublishRun([]*node.Node{live, other, nil})
	// nid001 is being sampled live: PublishRun must not double-publish
	// it (and must not unregister it).
	hosts := map[string]int{}
	for {
		smp, ok := sub.TryNext()
		if !ok {
			break
		}
		hosts[smp.Host]++
	}
	if hosts["nid001"] != 0 {
		t.Fatalf("live host republished %d samples", hosts["nid001"])
	}
	if hosts["nid002"] != 2 {
		t.Fatalf("nid002 published %d, want 2", hosts["nid002"])
	}
	if err := s.Unregister("nid001"); err != nil {
		t.Fatal("PublishRun unregistered the live host")
	}
}

type memStore struct {
	samples map[string][]float64 // host/metric → times
	fail    bool
}

func (m *memStore) InsertSample(host, metric string, tt, v float64) error {
	if m.fail {
		return errFail
	}
	if m.samples == nil {
		m.samples = make(map[string][]float64)
	}
	key := host + "/" + metric
	m.samples[key] = append(m.samples[key], tt)
	return nil
}

var errFail = &failErr{}

type failErr struct{}

func (*failErr) Error() string { return "store down" }

func TestPumpDrainsIntoStore(t *testing.T) {
	h := NewHub()
	sub, _ := h.Subscribe("", 64)
	st := &memStore{}
	done := make(chan struct{})
	var count int
	var err error
	go func() {
		count, err = Pump(sub, st)
		close(done)
	}()
	h.Publish(Sample{Host: "nid001", Domain: node.DomainGPU, T: 1, Watts: 100})
	h.Publish(Sample{Host: "nid001", Domain: node.DomainMemory, T: 1, Watts: 40})
	sub.Close()
	<-done
	if err != nil || count != 2 {
		t.Fatalf("Pump = (%d, %v)", count, err)
	}
	if len(st.samples["nid001/power.gpu"]) != 1 || len(st.samples["nid001/power.memory"]) != 1 {
		t.Fatalf("store contents = %v", st.samples)
	}
}

func TestPumpSurvivesInsertErrors(t *testing.T) {
	h := NewHub()
	sub, _ := h.Subscribe("", 64)
	st := &memStore{fail: true}
	h.Publish(Sample{Host: "n", Domain: node.DomainGPU, T: 1, Watts: 1})
	h.Publish(Sample{Host: "n", Domain: node.DomainGPU, T: 2, Watts: 1})
	sub.Close()
	count, err := Pump(sub, st)
	if count != 0 || err == nil {
		t.Fatalf("Pump = (%d, %v), want (0, error)", count, err)
	}
}

// Len returns the number of buffered samples.
func (s *Subscription) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
