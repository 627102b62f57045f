package promexp

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vasppower/internal/hw/node"
	"vasppower/internal/obs"
	"vasppower/internal/telemetry"
)

// publish pushes one full domain breakdown for host at stream time t.
func publish(h *telemetry.Hub, host string, t float64, gpu, mem, mod, nd float64) {
	h.Publish(telemetry.Sample{Host: host, Domain: node.DomainGPU, T: t, Watts: gpu})
	h.Publish(telemetry.Sample{Host: host, Domain: node.DomainMemory, T: t, Watts: mem})
	h.Publish(telemetry.Sample{Host: host, Domain: node.DomainModule, T: t, Watts: mod})
	h.Publish(telemetry.Sample{Host: host, Domain: node.DomainNode, T: t, Watts: nd})
}

// drain waits for the collector's background goroutine to fold
// everything published so far.
func drain(t *testing.T, c *Collector, wantSeries int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		n := len(c.series)
		c.mu.Unlock()
		if n >= wantSeries {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("collector did not fold %d series in time", wantSeries)
}

func find(t *testing.T, ms []Metric, name string, labels map[string]string) Metric {
	t.Helper()
outer:
	for _, m := range ms {
		if m.Name != name {
			continue
		}
		for k, v := range labels {
			if m.Labels[k] != v {
				continue outer
			}
		}
		return m
	}
	t.Fatalf("no sample %s%v", name, labels)
	return Metric{}
}

func TestCollectorScrape(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("omni.inserts").Add(7)
	reg.Gauge("pool.depth").SetMax(3)
	reg.Histogram("query.seconds", []float64{0.1, 1}).Observe(0.5)
	reg.Histogram("query.seconds", nil).Observe(5) // overflow bucket

	h := telemetry.NewHub(nil)
	c, err := NewCollector(h, reg, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	publish(h, "nid000001", 1.0, 140, 40, 190, 700)
	publish(h, "nid000001", 2.0, 150, 50, 210, 720)
	drain(t, c, 4)

	srv := httptest.NewServer(c)
	defer srv.Close()
	text := scrape(c)
	ms, err := Parse(text)
	if err != nil {
		t.Fatalf("scrape does not lint: %v\n%s", err, text)
	}

	// Gauges carry the latest sample; joules integrate both windows.
	w := find(t, ms, "vasppower_power_watts", map[string]string{"host": "nid000001", "domain": "module"})
	if w.Value != 210 {
		t.Fatalf("module watts = %v, want 210", w.Value)
	}
	j := find(t, ms, "vasppower_energy_joules_total", map[string]string{"host": "nid000001", "domain": "node"})
	if want := 700*1.0 + 720*1.0; math.Abs(j.Value-want) > 1e-9 {
		t.Fatalf("node joules = %v, want %v", j.Value, want)
	}

	// Registry re-export: counter gets _total, histogram is cumulative
	// with a +Inf bucket matching _count.
	if m := find(t, ms, "vasppower_omni_inserts_total", nil); m.Value != 7 {
		t.Fatalf("re-exported counter = %v", m.Value)
	}
	if m := find(t, ms, "vasppower_pool_depth", nil); m.Value != 3 {
		t.Fatalf("re-exported gauge = %v", m.Value)
	}
	b01 := find(t, ms, "vasppower_query_seconds_bucket", map[string]string{"le": "0.1"})
	b1 := find(t, ms, "vasppower_query_seconds_bucket", map[string]string{"le": "1"})
	binf := find(t, ms, "vasppower_query_seconds_bucket", map[string]string{"le": "+Inf"})
	cnt := find(t, ms, "vasppower_query_seconds_count", nil)
	if b01.Value != 0 || b1.Value != 1 || binf.Value != 2 || cnt.Value != 2 {
		t.Fatalf("histogram buckets not cumulative: %v %v %v count %v",
			b01.Value, b1.Value, binf.Value, cnt.Value)
	}
	if b01.Value > b1.Value || b1.Value > binf.Value {
		t.Fatal("bucket counts must be non-decreasing in le")
	}

	// Stream health counters present.
	find(t, ms, "vasppower_telemetry_subscribers", nil)
	find(t, ms, "vasppower_telemetry_dropped_samples_total", nil)
}

func TestJoulesMonotoneAcrossScrapes(t *testing.T) {
	h := telemetry.NewHub(nil)
	c, err := NewCollector(h, nil, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	publish(h, "nid000001", 1.0, 100, 30, 140, 600)
	drain(t, c, 4)
	first, err := Parse(scrape(c))
	if err != nil {
		t.Fatal(err)
	}
	publish(h, "nid000001", 2.0, 100, 30, 140, 600)
	time.Sleep(20 * time.Millisecond)
	second, err := Parse(scrape(c))
	if err != nil {
		t.Fatal(err)
	}
	for _, m1 := range first {
		if m1.Name != "vasppower_energy_joules_total" {
			continue
		}
		for _, m2 := range second {
			if m2.Key() == m1.Key() && m2.Value < m1.Value {
				t.Fatalf("joules went backwards for %s: %v -> %v", m1.Key(), m1.Value, m2.Value)
			}
		}
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	bad := []string{
		"1bad_name 3\n",
		"ok{label=unquoted} 3\n",
		"ok{l=\"v\"} notanumber\n",
		"# TYPE ok wavelet\nok 3\n",
		"ok 1\n# TYPE ok counter\n",
		"# TYPE ok counter\n# TYPE ok counter\nok 1\n",
		"dup{a=\"1\"} 1\ndup{a=\"1\"} 2\n",
		"ok{l=\"unterminated} 3\n",
		"trailing 3 1234567\n",
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Fatalf("lint accepted %q", text)
		}
	}
	good := "# HELP ok fine\n# TYPE ok gauge\nok{l=\"a b\",m=\"c\\\"d\"} 3.5\nok2 +Inf\n"
	ms, err := Parse(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Labels["m"] != `c"d` {
		t.Fatalf("parse = %+v", ms)
	}
}

func TestEscapeLabel(t *testing.T) {
	h := telemetry.NewHub(nil)
	c, err := NewCollector(h, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	h.Publish(telemetry.Sample{Host: "we\"ird\\host\n", Domain: node.DomainNode, T: 1, Watts: 5})
	drain(t, c, 1)
	text := scrape(c)
	ms, err := Parse(text)
	if err != nil {
		t.Fatalf("escaped scrape does not lint: %v\n%s", err, text)
	}
	m := find(t, ms, "vasppower_power_watts", map[string]string{"domain": "node"})
	if m.Labels["host"] != "we\"ird\\host\n" {
		t.Fatalf("host label round-trip = %q", m.Labels["host"])
	}
	if !strings.Contains(text, `\n`) {
		t.Fatal("newline not escaped in exposition")
	}
}

// scrape returns one scrape's body (what ServeHTTP writes).
func scrape(c *Collector) string {
	var b strings.Builder
	c.write(&b)
	return b.String()
}
