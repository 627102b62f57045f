package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"testing"

	"vasppower/internal/obs"
)

// coldMeasureAllocs is the allocation budget of one cold /v1/measure
// miss with a trivial Measure: decode, validate, admission context,
// flight, encode and alias registration (BenchmarkColdMeasure's
// count).
const coldMeasureAllocs = 20

// TestAllocBudget pins the serving path's allocations in tier-1, where
// BenchmarkWarmMeasure and BenchmarkColdMeasure only report them: a
// warm alias hit allocates nothing on any cached endpoint, and a cold
// measure stays within coldMeasureAllocs.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	f := &fakeMeasure{}
	warm := New(Config{Measure: f.fn, Reg: obs.NewRegistry()})
	for _, ep := range []struct{ path, body string }{
		{"/v1/measure", measureBody},
		{"/v1/sweep", `{"kind":"cap","bench":"Si256_hse","from_w":200,"to_w":300,"step_w":50}`},
		{"/v1/schedule", `{"policy":"uniform","cluster_nodes":8,"jobs":6}`},
	} {
		run, body := replay(warm, ep.path), []byte(ep.body)
		if status := run(body); status != http.StatusOK {
			t.Fatalf("%s: priming status %d", ep.path, status)
		}
		hits := warm.Metrics().Hits.Value()
		if n := testing.AllocsPerRun(100, func() { run(body) }); n != 0 {
			t.Errorf("%s warm alias hit: %v allocs, want 0", ep.path, n)
		}
		if got := warm.Metrics().Hits.Value() - hits; got != 101 {
			t.Fatalf("%s: %d of 101 replays were hits — the test fell off the warm path", ep.path, got)
		}
	}

	// Distinct caps below the TDP defeat both cache indexes, as in
	// BenchmarkColdMeasure.
	cold := New(Config{Measure: f.fn, Reg: obs.NewRegistry(), CacheEntries: 64})
	run := replay(cold, "/v1/measure")
	bodies := make([][]byte, 512)
	for i := range bodies {
		bodies[i] = []byte(`{"bench":"Si256_hse","cap_w":` +
			strconv.FormatFloat(100+float64(i)/2, 'g', -1, 64) + `}`)
	}
	i := 0
	n := testing.AllocsPerRun(200, func() {
		if status := run(bodies[i%len(bodies)]); status != http.StatusOK {
			t.Fatalf("cold measure status %d", status)
		}
		i++
	})
	if n > coldMeasureAllocs {
		t.Errorf("cold /v1/measure miss: %v allocs, want <= %d", n, coldMeasureAllocs)
	}
	if m := cold.Metrics().Misses.Value(); m != int64(i) {
		t.Fatalf("%d of %d cold requests were misses", m, i)
	}
}

// replay returns a function that serves one POST of body to path
// through s, reusing one request and one writer so that the only
// allocations observed are the server's own. It returns the status.
func replay(s *Server, path string) func(body []byte) int {
	h := s.Handler()
	w := newDiscardWriter()
	rb := &resettableBody{}
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: path}, Body: rb}
	return func(body []byte) int {
		w.reset()
		rb.r.Reset(body)
		h.ServeHTTP(w, req)
		if w.status == 0 {
			return http.StatusOK
		}
		return w.status
	}
}
