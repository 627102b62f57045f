package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"vasppower/internal/obs"
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
// flushes each sweep batch immediately, and small enough that any
// accepted body evaluates in milliseconds.
func fuzzServer() (*Server, *fakeMeasure) {
	f := &fakeMeasure{}
	return New(Config{
		Measure:         f.fn,
		Reg:             obs.NewRegistry(),
		BatchWindow:     -1,
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
	} {
		f.Add([]byte(body))
	}
	s, _ := fuzzServer()
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzEndpoint(t, s, "/v1/schedule", body, 1<<10)
	})
}
