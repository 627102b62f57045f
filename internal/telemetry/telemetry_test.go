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
	h := NewHub(nil)
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
	h := NewHub(nil)
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
	h := NewHub(nil)
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
	h := NewHub(nil)
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
	h := NewHub(nil)
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
	h := NewHub(nil)
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
	h := NewHub(NewMetrics(reg))
	sub, _ := h.Subscribe("", 2)
	for i := 0; i < 3; i++ {
		h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: float64(i), Watts: 1})
	}
	_ = sub
	// A hub built without metrics counts nothing in reg.
	other := NewHub(nil)
	other.Subscribe("", 1)
	other.Publish(Sample{Host: "n", Domain: node.DomainNode, T: 0, Watts: 1})
	other.Publish(Sample{Host: "n", Domain: node.DomainNode, T: 1, Watts: 1})
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

// TestCloseRemovesSubscription: a closed subscription leaves the hub's
// list, receives nothing more, and its drops stay in the hub's total.
func TestCloseRemovesSubscription(t *testing.T) {
	h := NewHub(nil)
	a, _ := h.Subscribe("", 1)
	b, _ := h.Subscribe("", 1)
	for i := 0; i < 3; i++ {
		h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: float64(i), Watts: 1})
	}
	if got := h.Dropped(); got != 4 {
		t.Fatalf("hub Dropped = %d, want 4", got)
	}
	a.Close()
	a.Close()
	if got := h.Subscribers(); got != 1 || len(h.subs) != 1 || h.subs[0] != b {
		t.Fatalf("after Close: Subscribers = %d, subs %v", got, h.subs)
	}
	if got := h.Dropped(); got != 4 {
		t.Fatalf("hub Dropped = %d after Close, want 4", got)
	}
	h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: 3, Watts: 1})
	if a.Len() != 1 || a.Dropped() != 2 {
		t.Fatalf("closed subscription: %d buffered, %d dropped; want 1, 2", a.Len(), a.Dropped())
	}
	if got := h.Dropped(); got != 5 {
		t.Fatalf("hub Dropped = %d, want 5", got)
	}
	b.Close()
	if got := h.Subscribers(); got != 0 {
		t.Fatalf("Subscribers = %d after closing both", got)
	}
}

// TestSubscribeClosePublishConcurrent churns subscriptions while a
// publisher runs (meant for -race): a subscription that stays open
// the whole time receives every sample, and the churned ones all
// leave the hub.
func TestSubscribeClosePublishConcurrent(t *testing.T) {
	h := NewHub(nil)
	steady, _ := h.Subscribe("", 1<<14)
	const n = 5000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			h.Publish(Sample{Host: "n", Domain: node.DomainNode, T: float64(i), Watts: 1})
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s, _ := h.SubscribeHost("n", "", 4)
				s.Close()
			}
		}()
	}
	wg.Wait()
	<-done
	if got := h.Subscribers(); got != 1 {
		t.Fatalf("Subscribers = %d, want 1", got)
	}
	if got := steady.Len(); got != n {
		t.Fatalf("steady subscription buffered %d samples, want %d", got, n)
	}
}

func testNode(t *testing.T, name string) *node.Node {
	t.Helper()
	return node.New(name, platform.Default(), nil)
}

// drain returns every sample sub holds, in order.
func drain(sub *Subscription) []Sample {
	var out []Sample
	for {
		smp, ok := sub.TryNext()
		if !ok {
			return out
		}
		out = append(out, smp)
	}
}

func times(smps []Sample) []float64 {
	var ts []float64
	for _, smp := range smps {
		ts = append(ts, smp.T)
	}
	return ts
}

func TestSamplerValidation(t *testing.T) {
	h := NewHub(nil)
	if _, err := NewSampler(nil, 1); err == nil {
		t.Fatal("nil hub accepted")
	}
	for _, iv := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewSampler(h, iv); err == nil {
			t.Fatalf("interval %v accepted", iv)
		}
	}
	sub, _ := h.Subscribe("", 64)
	s, err := NewSampler(h, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Nil and unnamed nodes are skipped; the named one still streams.
	unnamed, named := testNode(t, ""), testNode(t, "nid001")
	unnamed.RecordIdle(1)
	named.RecordIdle(1)
	s.PublishRun([]*node.Node{nil, unnamed, named})
	got := drain(sub)
	if len(got) != 8 {
		t.Fatalf("published %d samples, want 8 (two windows × four domains of nid001)", len(got))
	}
	for _, smp := range got {
		if smp.Host != "nid001" {
			t.Fatalf("sample from %q published", smp.Host)
		}
	}
}

func TestPublishRunFlushesTail(t *testing.T) {
	h := NewHub(nil)
	sub, _ := h.Subscribe(node.DomainNode, 64)
	s, _ := NewSampler(h, 1.0)
	n := testNode(t, "nid001")
	n.RecordIdle(2.5)
	s.PublishRun([]*node.Node{n})
	if got, want := times(drain(sub)), []float64{1, 2, 2.5}; !slices.Equal(got, want) {
		t.Fatalf("times = %v, want %v", got, want)
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
		h := NewHub(nil)
		sub, _ := h.Subscribe(node.DomainNode, 64)
		s, _ := NewSampler(h, interval)
		n := testNode(t, "nid001")
		for _, d := range durs {
			n.ResetTraces()
			n.RecordIdle(d)
			s.PublishRun([]*node.Node{n})
		}
		return drain(sub)
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

// TestSamplerClockMonotoneAcrossRuns: a later run on a host name
// resumes that host's stream clock where the last run left it, while
// another host's clock starts from zero.
func TestSamplerClockMonotoneAcrossRuns(t *testing.T) {
	h := NewHub(nil)
	sub, _ := h.Subscribe(node.DomainNode, 64)
	s, _ := NewSampler(h, 1.0)
	n, other := testNode(t, "nid001"), testNode(t, "nid002")
	n.RecordIdle(2)
	s.PublishRun([]*node.Node{n})
	// The next repeat reuses the host name with a fresh trace.
	n.ResetTraces()
	n.RecordIdle(3)
	other.RecordIdle(1)
	s.PublishRun([]*node.Node{n, other})
	byHost := map[string][]float64{}
	for _, smp := range drain(sub) {
		byHost[smp.Host] = append(byHost[smp.Host], smp.T)
	}
	if got, want := byHost["nid001"], []float64{1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("nid001 times %v, want %v", got, want)
	}
	if got, want := byHost["nid002"], []float64{1}; !slices.Equal(got, want) {
		t.Fatalf("nid002 times %v, want %v", got, want)
	}
}

// TestPublishRunConcurrentSameHost: parallel runs allocate the same
// host names, so concurrent PublishRuns on one name must each publish
// every sample, one run's windows after another's on one clock.
func TestPublishRunConcurrentSameHost(t *testing.T) {
	const runs = 64
	h := NewHub(nil)
	sub, _ := h.Subscribe(node.DomainNode, 4*runs)
	s, _ := NewSampler(h, 1.0)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		n := testNode(t, "nid000001")
		n.RecordIdle(2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.PublishRun([]*node.Node{n})
		}()
	}
	wg.Wait()
	got := times(drain(sub))
	want := make([]float64, 2*runs)
	for i := range want {
		want[i] = float64(i + 1)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%d samples published for %d runs of two windows: times %v", len(got), runs, got)
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
	h := NewHub(nil)
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
	h := NewHub(nil)
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
