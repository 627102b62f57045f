package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/hw/node"
	"vasppower/internal/obs"
	"vasppower/internal/omni"
	"vasppower/internal/stats"
	"vasppower/internal/telemetry"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// fakeMeasure is a deterministic stand-in for the measurement engine:
// it counts evaluations and optionally blocks each one on a gate so
// tests can hold requests in flight.
type fakeMeasure struct {
	evals atomic.Int64
	gate  chan struct{} // nil = never block
}

func (f *fakeMeasure) fn(spec core.MeasureSpec) (core.JobProfile, error) {
	f.evals.Add(1)
	if f.gate != nil {
		<-f.gate
	}
	mean := 1000.0 + spec.CapW + 10*float64(spec.Nodes)
	prof := core.Profile{Summary: stats.Summary{Mean: mean, Max: mean + 200, StdDev: 50}}
	return core.JobProfile{
		Runtime:   100,
		EnergyJ:   mean * 100,
		NodeTotal: prof,
		CPU:       core.Profile{Summary: stats.Summary{Mean: 200}},
		Mem:       core.Profile{Summary: stats.Summary{Mean: 100}},
		GPUSum:    core.Profile{Summary: stats.Summary{Mean: mean / 2}},
	}, nil
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *fakeMeasure) {
	t.Helper()
	f := &fakeMeasure{}
	cfg := Config{
		Measure:     f.fn,
		Reg:         obs.NewRegistry(),
		BatchWindow: -1, // flush immediately: deterministic tests
	}
	if mutate != nil {
		mutate(&cfg)
	}
	if cfg.Measure == nil {
		cfg.Measure = f.fn
	}
	return New(cfg), f
}

func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

const measureBody = `{"bench":"Si256_hse","nodes":1,"cap_w":250}`

func TestMeasureWarmHit(t *testing.T) {
	s, f := newTestServer(t, nil)
	first := post(t, s, "/v1/measure", measureBody)
	if first.Code != 200 {
		t.Fatalf("first request: status %d body %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	second := post(t, s, "/v1/measure", measureBody)
	if second.Code != 200 {
		t.Fatalf("second request: status %d", second.Code)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("hit bytes differ from miss bytes:\n%s\n%s", first.Body, second.Body)
	}
	if n := f.evals.Load(); n != 1 {
		t.Fatalf("evaluations = %d, want 1", n)
	}
	if v := s.Metrics().Hits.Value(); v != 1 {
		t.Fatalf("serve.hits = %d, want 1", v)
	}
	var resp map[string]any
	if err := json.Unmarshal(second.Body.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if resp["platform"] == "" || resp["runtime_s"].(float64) != 100 {
		t.Fatalf("unexpected response: %v", resp)
	}
}

// TestSemanticDedup: bodies that differ in field order or in spelling
// out defaults are distinct byte aliases but one canonical identity —
// one evaluation, identical response bytes, and cache hits after the
// first.
func TestSemanticDedup(t *testing.T) {
	s, f := newTestServer(t, nil)
	a := post(t, s, "/v1/measure", `{"bench":"Si256_hse","cap_w":250,"nodes":1}`)
	b := post(t, s, "/v1/measure", `{"nodes":1,"cap_w":250,"bench":"Si256_hse"}`)
	c := post(t, s, "/v1/measure", `{"bench":"Si256_hse","cap_w":250,"nodes":1,"repeats":1}`)
	for i, w := range []*httptest.ResponseRecorder{a, b, c} {
		if w.Code != 200 {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body)
		}
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) || !bytes.Equal(a.Body.Bytes(), c.Body.Bytes()) {
		t.Fatalf("semantically identical requests returned different bytes")
	}
	if n := f.evals.Load(); n != 1 {
		t.Fatalf("evaluations = %d, want 1 (canonical dedup)", n)
	}
	// The later spellings miss the alias index but find the finished
	// canonical entry: each scores as a hit, not as a miss.
	for i, w := range []*httptest.ResponseRecorder{b, c} {
		if got := w.Header().Get("X-Cache"); got != "hit" {
			t.Fatalf("spelling %d X-Cache = %q, want hit", i+1, got)
		}
	}
	if h, m := s.Metrics().Hits.Value(), s.Metrics().Misses.Value(); h != 2 || m != 1 {
		t.Fatalf("serve.hits = %d, serve.misses = %d, want 2 and 1", h, m)
	}
}

// TestAliasByteBound: alias keys copy verbatim request bodies, so a
// client minting unlimited whitespace variants of one spec must not
// pin unbounded memory. Bodies over maxAliasBody are never aliased
// (they still dedupe through the canonical index), and a shard's
// resident alias bytes never exceed maxAliasShardBytes.
func TestAliasByteBound(t *testing.T) {
	s, f := newTestServer(t, nil)
	body := `{"bench":"Si256_hse"}` + strings.Repeat(" ", maxAliasBody)
	for i := 0; i < 2; i++ {
		if w := post(t, s, "/v1/measure", body); w.Code != 200 {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body)
		}
	}
	if _, aliases := s.cache.Len(); aliases != 0 {
		t.Fatalf("oversized body registered %d aliases, want 0", aliases)
	}
	if n := f.evals.Load(); n != 1 {
		t.Fatalf("evaluations = %d, want 1 (canonical dedup without alias)", n)
	}

	c := newRespCache(1 << 20) // count bound far above the byte bound
	e := []byte("{}")
	pad := strings.Repeat(" ", 4000)
	for i, inserted := 0, 0; inserted < 300; i++ {
		vb := []byte(fmt.Sprintf(`{"i":%d}`, i) + pad)
		if fnv32a(vb)%respShardCount != 0 {
			continue // target one shard so the byte bound actually trips
		}
		c.alias(vb, e)
		inserted++
		if b := c.shards[0].aliasBytes; b > maxAliasShardBytes {
			t.Fatalf("shard alias bytes %d exceed bound %d", b, maxAliasShardBytes)
		}
	}
}

// TestCoalescingBurst holds the single evaluation open while N
// identical requests pile in: exactly one evaluation runs, everyone
// gets the same bytes, and the followers count as coalesced.
func TestCoalescingBurst(t *testing.T) {
	const n = 32
	f := &fakeMeasure{gate: make(chan struct{})}
	s, _ := newTestServer(t, func(c *Config) { c.Measure = f.fn })

	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, s, "/v1/measure", measureBody)
			codes[i] = w.Code
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	// Wait for the one evaluation to be in flight and for a follower
	// to be admitted behind it, then let it finish. Requests still
	// decoding at that point find the finished entry and count as hits.
	deadline := time.Now().Add(5 * time.Second)
	for f.evals.Load() == 0 || s.Metrics().InFlight.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("no evaluation started with a follower admitted")
		}
		time.Sleep(time.Millisecond)
	}
	close(f.gate)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d returned different bytes", i)
		}
	}
	if got := f.evals.Load(); got != 1 {
		t.Fatalf("evaluations = %d, want exactly 1", got)
	}
	m := s.Metrics()
	if m.Coalesced.Value() == 0 {
		t.Fatalf("serve.coalesced = 0, want > 0 (followers must coalesce)")
	}
	if m.Coalesced.Value()+m.Hits.Value()+1 != n {
		t.Fatalf("coalesced(%d) + hits(%d) + 1 leader != %d requests",
			m.Coalesced.Value(), m.Hits.Value(), n)
	}
}

func TestErrorPaths(t *testing.T) {
	s, f := newTestServer(t, nil)
	cases := []struct {
		name string
		body string
		want int
		frag string // substring expected in the error message
	}{
		{"malformed JSON", `{"bench":`, 400, "malformed"},
		{"unknown field", `{"bench":"Si256_hse","cap":250}`, 400, "unknown field"},
		{"trailing garbage", `{"bench":"Si256_hse"} trailing`, 400, "trailing"},
		{"unknown bench", `{"bench":"NoSuchBench"}`, 400, "unknown benchmark"},
		{"unknown platform", `{"bench":"Si256_hse","platform":"cray-1"}`, 400, "unknown platform"},
		{"nodes out of range", `{"bench":"Si256_hse","nodes":100000}`, 400, "nodes"},
		{"negative repeats", `{"bench":"Si256_hse","repeats":-1}`, 400, "repeats"},
		{"negative cap", `{"bench":"Si256_hse","cap_w":-5}`, 400, "cap_w"},
		{"infinite cap (1e999)", `{"bench":"Si256_hse","cap_w":1e999}`, 400, "malformed"},
		{"entropy out of range", `{"bench":"Si256_hse","entropy":1.5}`, 400, "entropy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/measure", tc.body)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d (body %s)", w.Code, tc.want, w.Body)
			}
			if !strings.Contains(w.Body.String(), tc.frag) {
				t.Fatalf("error %q does not mention %q", w.Body, tc.frag)
			}
		})
	}
	if w := get(t, s, "/v1/measure"); w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/measure: status %d, want 405", w.Code)
	}
	// Oversized body is rejected before any parsing, with 413 so a
	// well-behaved client can tell payload size from malformed JSON.
	big := `{"bench":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	if w := post(t, s, "/v1/measure", big); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", w.Code)
	}
	if n := f.evals.Load(); n != 0 {
		t.Fatalf("invalid requests triggered %d evaluations", n)
	}
	// Errors are never cached: a previously failing body succeeds once valid.
	if e := s.Metrics().Errors.Value(); e == 0 {
		t.Fatal("serve.errors not counted")
	}
}

// TestCheckFinite exercises the NaN/Inf guard directly: JSON cannot
// carry the literals, but the validator is spec-level and future
// non-JSON callers hit it.
func TestCheckFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		req := measureRequest{Bench: "Si256_hse", CapW: v}
		if _, aerr := req.toSpec(); aerr == nil {
			t.Fatalf("cap_w=%v accepted", v)
		}
		req = measureRequest{Bench: "Si256_hse", Entropy: v}
		if _, aerr := req.toSpec(); aerr == nil {
			t.Fatalf("entropy=%v accepted", v)
		}
	}
}

func TestSweepCap(t *testing.T) {
	s, f := newTestServer(t, nil)
	body := `{"kind":"cap","bench":"Si256_hse","from_w":100,"to_w":200,"step_w":50}`
	w := post(t, s, "/v1/sweep", body)
	if w.Code != 200 {
		t.Fatalf("status %d body %s", w.Code, w.Body)
	}
	var resp sweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 3 || len(resp.Points) != 3 {
		t.Fatalf("count %d, points %d, want 3", resp.Count, len(resp.Points))
	}
	for i, want := range []float64{100, 150, 200} {
		if resp.Points[i].CapW != want {
			t.Fatalf("point %d cap %g, want %g", i, resp.Points[i].CapW, want)
		}
	}
	if n := f.evals.Load(); n != 3 {
		t.Fatalf("evaluations = %d, want 3", n)
	}
	// Second identical sweep: byte-cache hit, no new evaluations.
	w2 := post(t, s, "/v1/sweep", body)
	if w2.Header().Get("X-Cache") != "hit" || f.evals.Load() != 3 {
		t.Fatalf("repeat sweep not served from cache (evals %d)", f.evals.Load())
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cached sweep bytes differ")
	}
}

func TestSweepPointsSharedWithMeasure(t *testing.T) {
	// A sweep and a point measure share canonical identities through
	// the batcher's key function — but distinct endpoints still
	// evaluate independently unless the memo tiers join them. Here both
	// go through the same fake (no memo), so the assertion is just that
	// the sweep's per-point spec equals the measure's canonical spec.
	s, _ := newTestServer(t, nil)
	w := post(t, s, "/v1/sweep", `{"kind":"scaling","bench":"Si256_hse","node_counts":[1,2,4]}`)
	if w.Code != 200 {
		t.Fatalf("status %d body %s", w.Code, w.Body)
	}
	var resp sweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 2, 4} {
		if resp.Points[i].Nodes != want {
			t.Fatalf("point %d nodes %d, want %d", i, resp.Points[i].Nodes, want)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxSweepPoints = 16 })
	cases := []struct {
		name, body, frag string
	}{
		{"oversized", `{"kind":"cap","bench":"Si256_hse","from_w":1,"to_w":1000,"step_w":1}`, "exceeds the 16-point limit"},
		// A denormal step makes the float point count overflow int;
		// it must be rejected in float space, not panic in make.
		{"tiny step", `{"kind":"cap","bench":"Si256_hse","from_w":1,"to_w":400,"step_w":1e-300}`, "exceeds the 16-point limit"},
		{"unknown kind", `{"kind":"zigzag","bench":"Si256_hse"}`, "unknown sweep kind"},
		{"scaling without counts", `{"kind":"scaling","bench":"Si256_hse"}`, "node_counts"},
		{"inverted range", `{"kind":"cap","bench":"Si256_hse","from_w":300,"to_w":100}`, "exceeds to_w"},
		{"bad bench", `{"kind":"cap","bench":"nope","from_w":100,"to_w":100}`, "unknown benchmark"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/sweep", tc.body)
			if w.Code != 400 {
				t.Fatalf("status %d, want 400 (body %s)", w.Code, w.Body)
			}
			if !strings.Contains(w.Body.String(), tc.frag) {
				t.Fatalf("error %q missing %q", w.Body, tc.frag)
			}
		})
	}
}

func TestSweepStream(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := post(t, s, "/v1/sweep", `{"kind":"cap","bench":"Si256_hse","from_w":100,"to_w":200,"step_w":50,"stream":true}`)
	if w.Code != 200 {
		t.Fatalf("status %d body %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want NDJSON", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d NDJSON lines, want 3", len(lines))
	}
	for i, line := range lines {
		var pt measureResponse
		if err := json.Unmarshal([]byte(line), &pt); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if want := 100 + 50*float64(i); pt.CapW != want {
			t.Fatalf("line %d cap %g, want %g", i, pt.CapW, want)
		}
	}
}

func TestScheduleEndpoint(t *testing.T) {
	s, f := newTestServer(t, nil)
	body := `{"policy":"uniform","cluster_nodes":8,"jobs":6,"budget_kw":10,"seed":7}`
	w := post(t, s, "/v1/schedule", body)
	if w.Code != 200 {
		t.Fatalf("status %d body %s", w.Code, w.Body)
	}
	var resp scheduleResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Completed+resp.Dropped != 6 {
		t.Fatalf("completed %d + dropped %d != 6 jobs", resp.Completed, resp.Dropped)
	}
	if resp.MakespanS <= 0 {
		t.Fatalf("makespan %g, want > 0", resp.MakespanS)
	}
	evalsAfterFirst := f.evals.Load()
	// Identical what-if: served from bytes, no new simulation.
	w2 := post(t, s, "/v1/schedule", body)
	if w2.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat schedule X-Cache %q, want hit", w2.Header().Get("X-Cache"))
	}
	if f.evals.Load() != evalsAfterFirst {
		t.Fatal("repeat schedule re-measured")
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatal("cached schedule bytes differ")
	}
}

func TestScheduleErrors(t *testing.T) {
	s, _ := newTestServer(t, func(c *Config) { c.MaxScheduleJobs = 100 })
	cases := []struct {
		name, body, frag string
	}{
		{"unknown policy", `{"policy":"anarchic","cluster_nodes":4,"jobs":2}`, "unknown policy"},
		{"no jobs", `{"policy":"nocap","cluster_nodes":4,"jobs":0}`, "jobs"},
		{"no nodes", `{"policy":"nocap","cluster_nodes":0,"jobs":2}`, "cluster_nodes"},
		{"too many jobs", `{"policy":"nocap","cluster_nodes":4,"jobs":101}`, "jobs"},
		{"unsorted envelope", `{"policy":"nocap","cluster_nodes":4,"jobs":2,"envelope":[{"start_s":10,"budget_kw":5},{"start_s":5,"budget_kw":4}]}`, "increasing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, "/v1/schedule", tc.body)
			if w.Code != 400 {
				t.Fatalf("status %d, want 400 (body %s)", w.Code, w.Body)
			}
			if !strings.Contains(w.Body.String(), tc.frag) {
				t.Fatalf("error %q missing %q", w.Body, tc.frag)
			}
		})
	}
}

// TestAdmissionShed: with capacity 1 and a zero queue, a second
// distinct request is shed with 429 + Retry-After while the first
// evaluation is in flight.
func TestAdmissionShed(t *testing.T) {
	f := &fakeMeasure{gate: make(chan struct{})}
	s, _ := newTestServer(t, func(c *Config) {
		c.Measure = f.fn
		c.MaxInFlight = 1
		c.MaxQueue = -1 // shed immediately at capacity
	})
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- post(t, s, "/v1/measure", measureBody) }()
	deadline := time.Now().Add(5 * time.Second)
	for f.evals.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first evaluation never started")
		}
		time.Sleep(time.Millisecond)
	}

	shed := post(t, s, "/v1/measure", `{"bench":"B.hR105_hse"}`)
	if shed.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", shed.Code)
	}
	if shed.Header().Get("Retry-After") != "1" {
		t.Fatalf("Retry-After %q, want 1", shed.Header().Get("Retry-After"))
	}
	if s.Metrics().Shed.Value() != 1 {
		t.Fatalf("serve.shed = %d, want 1", s.Metrics().Shed.Value())
	}

	close(f.gate)
	first := <-done
	if first.Code != 200 {
		t.Fatalf("first request: status %d", first.Code)
	}

	// Warm hits bypass admission entirely: saturate again, the cached
	// body still serves.
	f.gate = make(chan struct{})
	go func() { done <- post(t, s, "/v1/measure", `{"bench":"PdO4"}`) }()
	deadline = time.Now().Add(5 * time.Second)
	for f.evals.Load() < 2 { // PdO4 is the 2nd evaluation (the shed request never ran)
		if time.Now().After(deadline) {
			t.Fatal("saturating evaluation never started")
		}
		time.Sleep(time.Millisecond)
	}
	warm := post(t, s, "/v1/measure", measureBody)
	if warm.Code != 200 || warm.Header().Get("X-Cache") != "hit" {
		t.Fatalf("warm hit under saturation: status %d X-Cache %q", warm.Code, warm.Header().Get("X-Cache"))
	}
	close(f.gate)
	<-done
}

func TestOmniEndpoints(t *testing.T) {
	store := omni.NewStore()
	if err := store.Insert("nid000001", "power.node", timeseries.Series{
		Times: []float64{0, 1, 2, 3}, Values: []float64{100, 200, 300, 400},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterJob(omni.JobRecord{
		ID: "job1", App: "vasp", Nodes: []string{"nid000001"}, Start: 0, End: 3,
	}); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, func(c *Config) { c.Store = store })

	w := get(t, s, "/v1/omni/hosts")
	if w.Code != 200 || !strings.Contains(w.Body.String(), "nid000001") {
		t.Fatalf("hosts: status %d body %s", w.Code, w.Body)
	}
	w = get(t, s, "/v1/omni/query?host=nid000001&metric=power.node&t0=1&t1=2")
	if w.Code != 200 {
		t.Fatalf("query: status %d body %s", w.Code, w.Body)
	}
	var q struct {
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Values) != 2 || q.Values[0] != 200 {
		t.Fatalf("query window values %v, want [200 300]", q.Values)
	}
	if w = get(t, s, "/v1/omni/query?host=ghost&metric=power.node"); w.Code != 404 {
		t.Fatalf("unknown host: status %d, want 404", w.Code)
	}
	if w = get(t, s, "/v1/omni/query?host=nid000001"); w.Code != 400 {
		t.Fatalf("missing metric: status %d, want 400", w.Code)
	}
	if w = get(t, s, "/v1/omni/query?host=nid000001&metric=power.node&t0=zero"); w.Code != 400 {
		t.Fatalf("bad t0: status %d, want 400", w.Code)
	}
	w = get(t, s, "/v1/omni/jobs")
	if w.Code != 200 || !strings.Contains(w.Body.String(), "job1") {
		t.Fatalf("jobs: status %d body %s", w.Code, w.Body)
	}
	w = get(t, s, "/v1/omni/jobs?id=job1")
	if w.Code != 200 || !strings.Contains(w.Body.String(), "energy_j") {
		t.Fatalf("job detail: status %d body %s", w.Code, w.Body)
	}
	if w = get(t, s, "/v1/omni/jobs?id=ghost"); w.Code != 404 {
		t.Fatalf("unknown job: status %d, want 404", w.Code)
	}

	bare, _ := newTestServer(t, nil)
	if w = get(t, bare, "/v1/omni/hosts"); w.Code != 404 {
		t.Fatalf("store-less server: status %d, want 404", w.Code)
	}
}

func TestTelemetryEndpoint(t *testing.T) {
	hub := telemetry.NewHub()
	s, _ := newTestServer(t, func(c *Config) { c.Hub = hub })

	// First query attaches the host-filtered ring; samples published
	// before attachment are not buffered.
	w := get(t, s, "/v1/telemetry?host=nid000001")
	if w.Code != 200 {
		t.Fatalf("status %d body %s", w.Code, w.Body)
	}
	var first struct {
		Attached bool `json:"attached"`
		Samples  []struct {
			Domain string  `json:"domain"`
			Watts  float64 `json:"watts"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if !first.Attached || len(first.Samples) != 0 {
		t.Fatalf("first query: attached %v samples %d, want true/0", first.Attached, len(first.Samples))
	}

	hub.Publish(telemetry.Sample{Host: "nid000001", Domain: node.DomainGPU, T: 1, Watts: 400})
	hub.Publish(telemetry.Sample{Host: "nid000002", Domain: node.DomainGPU, T: 1, Watts: 999})
	hub.Publish(telemetry.Sample{Host: "nid000001", Domain: node.DomainNode, T: 2, Watts: 900})

	w = get(t, s, "/v1/telemetry?host=nid000001")
	var second struct {
		Attached bool `json:"attached"`
		Samples  []struct {
			Domain string  `json:"domain"`
			Watts  float64 `json:"watts"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if second.Attached {
		t.Fatal("second query should reuse the ring")
	}
	if len(second.Samples) != 2 {
		t.Fatalf("%d samples, want 2 (host-filtered)", len(second.Samples))
	}
	for _, smp := range second.Samples {
		if smp.Watts == 999 {
			t.Fatal("another host's sample leaked into the ring")
		}
	}

	if w = get(t, s, "/v1/telemetry"); w.Code != 400 {
		t.Fatalf("missing host: status %d, want 400", w.Code)
	}
	if w = get(t, s, "/v1/telemetry?host=x&domain=warp"); w.Code != 400 {
		t.Fatalf("bad domain: status %d, want 400", w.Code)
	}
	bare, _ := newTestServer(t, nil)
	if w = get(t, bare, "/v1/telemetry?host=x"); w.Code != 404 {
		t.Fatalf("hub-less server: status %d, want 404", w.Code)
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, nil)
	w := get(t, s, "/healthz")
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body %s (err %v)", w.Body, err)
	}
}

func TestLimiterFIFOAndCancel(t *testing.T) {
	l := NewLimiter(2, 8, nil)
	if err := l.Acquire(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	// Two queued waiters; cancel the first, release, second admits.
	ctx1, cancel1 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	started := make(chan struct{}, 2)
	go func() { started <- struct{}{}; errs <- l.Acquire(ctx1, 1) }()
	<-started
	waitQueued(t, l, 1)
	go func() { started <- struct{}{}; errs <- l.Acquire(context.Background(), 1) }()
	<-started
	waitQueued(t, l, 2)

	cancel1()
	if err := <-errs; err != context.Canceled {
		t.Fatalf("canceled waiter got %v", err)
	}
	l.Release(2)
	if err := <-errs; err != nil {
		t.Fatalf("second waiter got %v", err)
	}
	if got := l.InFlight(); got != 1 {
		t.Fatalf("in-flight %d, want 1", got)
	}
	l.Release(1)
	if got := l.InFlight(); got != 0 {
		t.Fatalf("in-flight %d after release, want 0", got)
	}
}

// TestLimiterCancelHeadAdmitsSmaller: canceling a queued (not yet
// granted) head waiter must re-run admission — a smaller waiter behind
// it that already fits the free capacity is admitted immediately, not
// left blocked until the next Release.
func TestLimiterCancelHeadAdmitsSmaller(t *testing.T) {
	l := NewLimiter(4, 8, nil)
	if err := l.Acquire(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	ctxBig, cancelBig := context.WithCancel(context.Background())
	bigErr := make(chan error, 1)
	go func() { bigErr <- l.Acquire(ctxBig, 4) }() // can't fit: heads the queue
	waitQueued(t, l, 1)
	smallErr := make(chan error, 1)
	go func() { smallErr <- l.Acquire(context.Background(), 1) }() // fits, but FIFO-blocked
	waitQueued(t, l, 2)

	cancelBig()
	if err := <-bigErr; err != context.Canceled {
		t.Fatalf("canceled head waiter got %v", err)
	}
	select {
	case err := <-smallErr:
		if err != nil {
			t.Fatalf("small waiter got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("small waiter not admitted after head cancellation")
	}
	if got := l.InFlight(); got != 4 {
		t.Fatalf("in-flight %d, want 4", got)
	}
	l.Release(3)
	l.Release(1)
}

func waitQueued(t *testing.T, l *Limiter, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		q := len(l.waiters)
		l.mu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLimiterSaturation(t *testing.T) {
	l := NewLimiter(1, 0, nil)
	if err := l.Acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire(context.Background(), 1); err != ErrSaturated {
		t.Fatalf("got %v, want ErrSaturated", err)
	}
	l.Release(1)
	if err := l.Acquire(context.Background(), 1); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestBatcherMerges(t *testing.T) {
	f := &fakeMeasure{}
	m := NewMetrics(obs.NewRegistry())
	b := NewBatcher(f.fn, nil, measureCanonKey, 20*time.Millisecond, 2, m)
	specA := mustSpec(t, measureRequest{Bench: "Si256_hse", CapW: 250})
	specB := mustSpec(t, measureRequest{Bench: "Si256_hse", CapW: 300})
	fa1 := b.Enqueue(specA)
	fa2 := b.Enqueue(specA) // same point, same window → same flight
	fb := b.Enqueue(specB)
	if fa1 != fa2 {
		t.Fatal("identical points in one window got separate flights")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, fl := range []*PointFlight{fa1, fa2, fb} {
		if _, err := fl.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if n := f.evals.Load(); n != 2 {
		t.Fatalf("evaluations = %d, want 2 (A merged)", n)
	}
	if m.BatchMerged.Value() != 1 {
		t.Fatalf("serve.batch_merged = %d, want 1", m.BatchMerged.Value())
	}
	if m.BatchFlushes.Value() != 1 {
		t.Fatalf("serve.batch_flushes = %d, want 1 (shared window)", m.BatchFlushes.Value())
	}
}

// TestNonBindingCapCanonicalization: a cap at or above the platform
// TDP is the stock power limit, so cap_w=0, cap_w=TDP, and cap_w>TDP
// must share one canonical cache entry — one evaluation, identical
// response bytes, and an echoed cap_w of 0 regardless of which form
// arrived first.
func TestNonBindingCapCanonicalization(t *testing.T) {
	s, f := newTestServer(t, nil)
	tdp := mustSpec(t, measureRequest{Bench: "Si256_hse"}).Platform.GPU.TDP
	bodies := []string{
		fmt.Sprintf(`{"bench":"Si256_hse","cap_w":%g}`, tdp+50),
		`{"bench":"Si256_hse"}`,
		`{"bench":"Si256_hse","cap_w":0}`,
		fmt.Sprintf(`{"bench":"Si256_hse","cap_w":%g}`, tdp),
	}
	var first []byte
	for i, body := range bodies {
		w := post(t, s, "/v1/measure", body)
		if w.Code != 200 {
			t.Fatalf("request %d: status %d body %s", i, w.Code, w.Body)
		}
		if i == 0 {
			first = append([]byte(nil), w.Body.Bytes()...)
			continue
		}
		if !bytes.Equal(w.Body.Bytes(), first) {
			t.Fatalf("request %d bytes differ from first:\n%s\n%s", i, w.Body, first)
		}
	}
	if n := f.evals.Load(); n != 1 {
		t.Fatalf("evaluations = %d, want 1 (non-binding caps share one entry)", n)
	}
	var resp measureResponse
	if err := json.Unmarshal(first, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.CapW != 0 {
		t.Fatalf("echoed cap_w = %g, want 0 (normalized)", resp.CapW)
	}
	// A binding cap stays a distinct identity.
	w := post(t, s, "/v1/measure", `{"bench":"Si256_hse","cap_w":250}`)
	if w.Code != 200 {
		t.Fatalf("binding cap: status %d", w.Code)
	}
	if n := f.evals.Load(); n != 2 {
		t.Fatalf("evaluations = %d, want 2 (binding cap is distinct)", n)
	}
}

// TestSweepGroupPath: points of one sweep that share a spec-minus-cap
// identity ride one MeasureGroup call (serve.batch_groups), and the
// response bytes are identical to the per-point path's.
func TestSweepGroupPath(t *testing.T) {
	f := &fakeMeasure{}
	var groupCalls atomic.Int64
	group := func(spec core.MeasureSpec, caps []float64) ([]core.JobProfile, error) {
		groupCalls.Add(1)
		out := make([]core.JobProfile, len(caps))
		for i, capW := range caps {
			pt := spec
			pt.CapW = capW
			jp, err := f.fn(pt)
			if err != nil {
				return nil, err
			}
			out[i] = jp
		}
		return out, nil
	}
	// A real window so all three points land in one flush.
	s := New(Config{Measure: f.fn, MeasureGroup: group,
		Reg: obs.NewRegistry(), BatchWindow: 20 * time.Millisecond})
	body := `{"kind":"cap","bench":"Si256_hse","from_w":100,"to_w":200,"step_w":50}`
	w := post(t, s, "/v1/sweep", body)
	if w.Code != 200 {
		t.Fatalf("status %d body %s", w.Code, w.Body)
	}
	if n := groupCalls.Load(); n != 1 {
		t.Fatalf("group calls = %d, want 1", n)
	}
	if n := f.evals.Load(); n != 3 {
		t.Fatalf("evaluations = %d, want 3", n)
	}
	if v := s.Metrics().BatchGroups.Value(); v != 1 {
		t.Fatalf("serve.batch_groups = %d, want 1", v)
	}
	// The per-point path (no group fn) must produce identical bytes.
	s2, _ := newTestServer(t, func(c *Config) { c.Measure = f.fn })
	w2 := post(t, s2, "/v1/sweep", body)
	if w2.Code != 200 {
		t.Fatalf("per-point status %d", w2.Code)
	}
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("group-path bytes differ from per-point bytes:\n%s\n%s", w.Body, w2.Body)
	}
}

// TestSweepGroupError: a failing group falls back to per-point
// evaluation so errors stay per-point.
func TestSweepGroupError(t *testing.T) {
	f := &fakeMeasure{}
	group := func(core.MeasureSpec, []float64) ([]core.JobProfile, error) {
		return nil, fmt.Errorf("group exploded")
	}
	s := New(Config{Measure: f.fn, MeasureGroup: group,
		Reg: obs.NewRegistry(), BatchWindow: 20 * time.Millisecond})
	w := post(t, s, "/v1/sweep", `{"kind":"cap","bench":"Si256_hse","from_w":100,"to_w":200,"step_w":50}`)
	if w.Code != 200 {
		t.Fatalf("status %d body %s (group failure must fall back)", w.Code, w.Body)
	}
	if n := f.evals.Load(); n != 3 {
		t.Fatalf("evaluations = %d, want 3 (per-point fallback)", n)
	}
}

// TestSweepStreamCancelMidStream: cancelling a streaming sweep while a
// point is still evaluating must emit a terminal NDJSON error record
// for that point, return the handler, and release the admission
// weight; the blocked evaluation drains in the background afterwards.
func TestSweepStreamCancelMidStream(t *testing.T) {
	block := make(chan struct{})
	measure := func(spec core.MeasureSpec) (core.JobProfile, error) {
		if spec.CapW == 200 { // last point of the sweep below
			<-block
		}
		return core.JobProfile{Runtime: 1}, nil
	}
	s, _ := newTestServer(t, func(c *Config) { c.Measure = measure })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"kind":"cap","bench":"Si256_hse","from_w":100,"to_w":200,"step_w":50,"stream":true}`)).
		WithContext(ctx)
	// Cancel once the first two points are streamed; the third is gated
	// on block, so its Wait observes only the cancellation.
	w := &lineSignalRecorder{ResponseRecorder: httptest.NewRecorder(), want: 2, ready: make(chan struct{})}
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(w, req)
		close(done)
	}()
	select {
	case <-w.ready:
	case <-time.After(10 * time.Second):
		t.Fatal("first two points never streamed")
	}
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("handler did not return after cancellation")
	}
	close(block) // let the background flush drain

	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d NDJSON lines, want 3 (2 points + terminal error): %q", len(lines), w.Body)
	}
	var terminal struct {
		Error string `json:"error"`
		Point int    `json:"point"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &terminal); err != nil {
		t.Fatalf("terminal line not JSON: %v", err)
	}
	if terminal.Point != 2 || !strings.Contains(terminal.Error, "context canceled") {
		t.Fatalf("terminal record = %+v, want point 2 canceled", terminal)
	}
	if v := s.Metrics().Errors.Value(); v != 1 {
		t.Fatalf("serve.errors = %d, want 1", v)
	}
	if v := s.limiter.InFlight(); v != 0 {
		t.Fatalf("admission weight %d still held after cancelled stream", v)
	}
}

// lineSignalRecorder closes ready once `want` NDJSON lines have been
// written.
type lineSignalRecorder struct {
	*httptest.ResponseRecorder
	want  int
	lines int
	ready chan struct{}
	once  sync.Once
}

func (w *lineSignalRecorder) Write(p []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(p)
	w.lines += bytes.Count(p[:n], []byte("\n"))
	if w.lines >= w.want {
		w.once.Do(func() { close(w.ready) })
	}
	return n, err
}

// cancelOnWriteRecorder cancels a context on the first body write —
// the closest a test can get to a client dropping mid-stream.
type cancelOnWriteRecorder struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
	once   sync.Once
}

func (w *cancelOnWriteRecorder) Write(p []byte) (int, error) {
	w.once.Do(w.cancel)
	return w.ResponseRecorder.Write(p)
}

// TestSweepStreamCancelReleasesArenaAndDisk drives the real engine
// with a disk cache attached and drops the client at the first
// streamed byte: however far evaluation got, the incremental sweep
// arena must return to zero and the cache directory must hold only
// whole, committed entries (no tmp-* files).
func TestSweepStreamCancelReleasesArenaAndDisk(t *testing.T) {
	dir := t.TempDir()
	env, err := experiments.NewEnv(experiments.EnvOptions{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	before := workloads.ActiveSweeps()
	s := New(Config{Reg: obs.NewRegistry(), BatchWindow: 10 * time.Millisecond,
		Measure: env.Measure, MeasureGroup: env.MeasureGroup})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"kind":"cap","bench":"B.hR105_hse","from_w":150,"to_w":350,"step_w":50,"stream":true}`)).
		WithContext(ctx)
	w := &cancelOnWriteRecorder{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	done := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(w, req)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("handler did not return after client drop")
	}
	deadline := time.Now().Add(60 * time.Second)
	for workloads.ActiveSweeps() != before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := workloads.ActiveSweeps(); got != before {
		t.Fatalf("ActiveSweeps = %d, want %d (arena leaked after dropped stream)", got, before)
	}
	tmp := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasPrefix(d.Name(), "tmp-") {
			tmp++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tmp != 0 {
		t.Fatalf("%d tmp-* files left in the disk cache after dropped stream", tmp)
	}
}

func mustSpec(t *testing.T, req measureRequest) core.MeasureSpec {
	t.Helper()
	spec, aerr := req.toSpec()
	if aerr != nil {
		t.Fatalf("spec: %s", aerr.msg)
	}
	return spec
}

func TestWaitForShutdown(t *testing.T) {
	if got := WaitForShutdown(0); got != "hold elapsed" {
		t.Fatalf("hold 0: %q", got)
	}
	start := time.Now()
	if got := WaitForShutdown(20 * time.Millisecond); got != "hold elapsed" {
		t.Fatalf("short hold: %q", got)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("short hold returned early without a signal")
	}
	// A signal ends an indefinite hold.
	done := make(chan string, 1)
	go func() { done <- WaitForShutdown(-1) }()
	time.Sleep(50 * time.Millisecond) // let Notify install
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-done:
		if got != "signal" {
			t.Fatalf("signal hold: %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not end the hold")
	}
}

func TestMountCoversEveryEndpoint(t *testing.T) {
	s, _ := newTestServer(t, nil)
	mux := http.NewServeMux()
	s.Mount(mux)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("mounted /healthz: status %d", w.Code)
	}
}

// TestResponseDeterminism pins the canonical-bytes invariant: two
// servers given the same spec produce identical bytes (what lets CI
// diff a served response against powerd -oneshot).
func TestResponseDeterminism(t *testing.T) {
	s1, _ := newTestServer(t, nil)
	s2, _ := newTestServer(t, nil)
	a := post(t, s1, "/v1/measure", measureBody)
	b := post(t, s2, "/v1/measure", measureBody)
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatalf("same spec, different bytes:\n%s\n%s", a.Body, b.Body)
	}
}
