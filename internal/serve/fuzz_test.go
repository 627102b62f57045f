package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"testing"

	"vasppower/internal/hw/node"
	"vasppower/internal/obs"
	"vasppower/internal/omni"
	"vasppower/internal/telemetry"
	"vasppower/internal/timeseries"
)

// Every request decoder is an external input: the fuzz targets below
// drive arbitrary bodies through the whole cached request path
// (Server.OneShot: read, alias probe, strict decode, validation,
// canonical key, admission, flight, encode) on a server with a
// deterministic fake Measure and small sweep and schedule limits.
// For every body they check that
//
//   - nothing panics and nothing answers 5xx (a bad body is a 4xx);
//   - an accepted body, sent again, returns the same bytes as a cache
//     hit (or, for an NDJSON stream, which bypasses the cache, as the
//     same recomputed stream);
//   - the accepted response's size stays under a per-endpoint bound;
//   - for a measurement, the spec an accepted response echoes back,
//     posted as a new body, is served from the same canonical entry:
//     the same bytes, with no second evaluation.

const (
	fuzzMaxSweepPoints  = 16
	fuzzMaxScheduleJobs = 100
)

// fuzzServer is the server every fuzz target drives: deterministic,
// and small enough that any accepted body evaluates in milliseconds.
func fuzzServer() (*Server, *fakeMeasure) {
	f := &fakeMeasure{}
	return New(Config{
		Measure:         f.fn,
		Reg:             obs.NewRegistry(),
		MaxSweepPoints:  fuzzMaxSweepPoints,
		MaxScheduleJobs: fuzzMaxScheduleJobs,
	}), f
}

// fuzzEndpoint posts body to path twice and checks the properties
// above; maxResp bounds an accepted response's size. It returns the
// accepted response, or nil.
func fuzzEndpoint(t *testing.T, s *Server, path string, body []byte, maxResp int) []byte {
	status, resp := s.OneShot(http.MethodPost, path, body)
	if status >= 500 {
		t.Fatalf("status %d for body %q: %s", status, body, resp)
	}
	if status != http.StatusOK {
		return nil
	}
	if len(resp) > maxResp {
		t.Fatalf("accepted response is %d bytes, bound %d (body %q)", len(resp), maxResp, body)
	}
	hits := s.Metrics().Hits.Value()
	status2, resp2 := s.OneShot(http.MethodPost, path, body)
	if status2 != http.StatusOK || !bytes.Equal(resp, resp2) {
		t.Fatalf("repeat of body %q: status %d, bytes differ:\n%s\n%s", body, status2, resp, resp2)
	}
	if s.Metrics().Hits.Value() == hits && !isStream(body) {
		t.Fatalf("repeat of accepted body %q was not a cache hit", body)
	}
	return resp
}

// fuzzRekey posts the spec an accepted measure response echoes back
// (the resolved defaults spelled out) as a new body. It names the same
// measurement as the body that produced resp, so it must be a cache
// hit on the canonical entry, byte-identical to resp, and must not
// evaluate again.
func fuzzRekey(t *testing.T, s *Server, fake *fakeMeasure, resp []byte) {
	var echo measureRequest
	if err := json.Unmarshal(resp, &echo); err != nil {
		t.Fatalf("accepted response is not JSON: %v\n%s", err, resp)
	}
	rekeyed, err := json.Marshal(echo)
	if err != nil {
		t.Fatal(err)
	}
	evals, hits := fake.evals.Load(), s.Metrics().Hits.Value()
	status, again := s.OneShot(http.MethodPost, "/v1/measure", rekeyed)
	if status != http.StatusOK || !bytes.Equal(again, resp) {
		t.Fatalf("echoed spec %q: status %d, bytes differ:\n%s\n%s", rekeyed, status, resp, again)
	}
	if fake.evals.Load() != evals || s.Metrics().Hits.Value() == hits {
		t.Fatalf("echoed spec %q was evaluated again instead of served from the canonical entry", rekeyed)
	}
}

// isStream reports whether an accepted sweep body asked for NDJSON.
func isStream(body []byte) bool {
	var req sweepRequest
	return decodeStrict(body, &req) == nil && req.Stream
}

func FuzzMeasureRequest(f *testing.F) {
	for _, body := range []string{
		measureBody,
		`{"bench":"Si256_hse","platform":"h100-sxm","nodes":2,"repeats":3,"cap_w":150,"seed":9,"entropy":0.5}`,
		// TestErrorPaths' bodies.
		`{"bench":`,
		`{"bench":"Si256_hse","cap":250}`,
		`{"bench":"Si256_hse"} trailing`,
		`{"bench":"NoSuchBench"}`,
		`{"bench":"Si256_hse","platform":"cray-1"}`,
		`{"bench":"Si256_hse","nodes":100000}`,
		`{"bench":"Si256_hse","repeats":-1}`,
		`{"bench":"Si256_hse","cap_w":-5}`,
		`{"bench":"Si256_hse","cap_w":1e999}`,
		`{"bench":"Si256_hse","entropy":1.5}`,
	} {
		f.Add([]byte(body))
	}
	s, fake := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		if resp := fuzzEndpoint(t, s, "/v1/measure", body, 2<<10); resp != nil {
			fuzzRekey(t, s, fake, resp)
		}
	})
}

func FuzzSweepRequest(f *testing.F) {
	for _, body := range []string{
		`{"kind":"cap","bench":"Si256_hse","from_w":200,"to_w":300,"step_w":50}`,
		`{"kind":"cap","bench":"Si256_hse","from_w":200,"to_w":300,"step_w":50,"stream":true}`,
		`{"kind":"scaling","bench":"GaAsBi-64","node_counts":[1,2,4],"cap_w":250}`,
		// TestSweepErrors' bodies.
		`{"kind":"cap","bench":"Si256_hse","from_w":1,"to_w":1000,"step_w":1}`,
		`{"kind":"cap","bench":"Si256_hse","from_w":1,"to_w":400,"step_w":1e-300}`,
		`{"kind":"zigzag","bench":"Si256_hse"}`,
		`{"kind":"scaling","bench":"Si256_hse"}`,
		`{"kind":"cap","bench":"Si256_hse","from_w":300,"to_w":100}`,
		`{"kind":"cap","bench":"nope","from_w":100,"to_w":100}`,
	} {
		f.Add([]byte(body))
	}
	s, _ := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzEndpoint(t, s, "/v1/sweep", body, fuzzMaxSweepPoints<<10)
	})
}

func FuzzScheduleRequest(f *testing.F) {
	for _, body := range []string{
		`{"policy":"uniform","cluster_nodes":8,"jobs":6}`,
		`{"policy":"profile-aware","cluster_nodes":16,"jobs":20,"budget_kw":12,"envelope":[{"start_s":0,"budget_kw":10},{"start_s":600,"budget_kw":0}]}`,
		// TestScheduleErrors' bodies.
		`{"policy":"anarchic","cluster_nodes":4,"jobs":2}`,
		`{"policy":"nocap","cluster_nodes":4,"jobs":0}`,
		`{"policy":"nocap","cluster_nodes":0,"jobs":2}`,
		`{"policy":"nocap","cluster_nodes":4,"jobs":101}`,
		`{"policy":"nocap","cluster_nodes":4,"jobs":2,"envelope":[{"start_s":10,"budget_kw":5},{"start_s":5,"budget_kw":4}]}`,
		`{"policy":"nocap","cluster_nodes":8,"jobs":50,"arrival_s":1e308}`,
	} {
		f.Add([]byte(body))
	}
	s, _ := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzEndpoint(t, s, "/v1/schedule", body, 1<<10)
	})
}

// The GET endpoints' query parameters are external inputs too. The
// targets below send arbitrary values through a server with a hub and
// a store holding one host's series and one job. No value may panic
// or answer 5xx, except /v1/telemetry's 503 once its rings are at the
// cap, and no value may attach a ring past maxTelemetryRings.

// fuzzGetServer is the server the GET targets drive.
func fuzzGetServer(t testing.TB) (*Server, *telemetry.Hub) {
	store := omni.NewStore(nil)
	series := timeseries.Series{Times: []float64{0, 1, 2}, Values: []float64{400, 410, 405}}
	if err := store.Insert("nid000001", "node", series); err != nil {
		t.Fatal(err)
	}
	if err := store.RegisterJob(omni.JobRecord{ID: "42", Nodes: []string{"nid000001"}, Start: 0, End: 2}); err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(nil)
	return New(Config{
		Measure: (&fakeMeasure{}).fn, Reg: obs.NewRegistry(),
		Store: store, Hub: hub, TelemetryRing: 8,
	}), hub
}

// fuzzGet sends a GET of path with the query parameters kv (name,
// value pairs) and fails on a 5xx unless allowed.
func fuzzGet(t *testing.T, s *Server, path string, allow5xx bool, kv ...string) int {
	q := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		q.Set(kv[i], kv[i+1])
	}
	status, resp := s.OneShot(http.MethodGet, path+"?"+q.Encode(), nil)
	if status >= 500 && !allow5xx {
		t.Fatalf("GET %s?%s: status %d: %s", path, q.Encode(), status, resp)
	}
	return status
}

func FuzzOmniQuery(f *testing.F) {
	f.Add("nid000001", "node", "", "")
	f.Add("nid000001", "node", "0.5", "1.5")
	f.Add("nid000001", "node", "NaN", "-Inf")
	f.Add("nid000001", "node", "2", "1")
	f.Add("nid000002", "node", "", "")
	f.Add("nid000001", "gpu0", "x", "1e999")
	s, _ := fuzzGetServer(f)
	f.Fuzz(func(t *testing.T, host, metric, t0, t1 string) {
		fuzzGet(t, s, "/v1/omni/query", false, "host", host, "metric", metric, "t0", t0, "t1", t1)
	})
}

func FuzzOmniJobs(f *testing.F) {
	for _, id := range []string{"", "42", "43", "42\x00", "%"} {
		f.Add(id)
	}
	s, _ := fuzzGetServer(f)
	f.Fuzz(func(t *testing.T, id string) {
		fuzzGet(t, s, "/v1/omni/jobs", false, "id", id)
	})
}

func FuzzTelemetryQuery(f *testing.F) {
	f.Add("nid000001", "")
	f.Add("nid004096", string(node.DomainGPU))
	f.Add("nid004097", "")
	f.Add("nid000000", "node")
	f.Add("nid+00001", "")
	f.Add("node00", "")
	f.Add("nid000002", "warp")
	s, hub := fuzzGetServer(f)
	f.Fuzz(func(t *testing.T, host, domain string) {
		full := len(s.telem.subs) >= maxTelemetryRings
		status := fuzzGet(t, s, "/v1/telemetry", full, "host", host, "domain", domain)
		if status >= 500 && status != http.StatusServiceUnavailable {
			t.Fatalf("host %q domain %q: status %d", host, domain, status)
		}
		if n := hub.Subscribers(); n > maxTelemetryRings || n != len(s.telem.subs) {
			t.Fatalf("%d hub subscriptions for %d rings, cap %d", n, len(s.telem.subs), maxTelemetryRings)
		}
	})
}
