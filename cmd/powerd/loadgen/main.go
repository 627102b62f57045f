// Command loadgen drives a running powerd and reports what it
// sustained. It is the CI load harness for the serving layer:
//
//	loadgen -addr 127.0.0.1:8080 [-spec JSON] [-burst 64] [-duration 3s] [-conns 8] [-out FILE]
//
// Two phases, mirroring the serving layer's two performance claims:
//
//  1. Cold burst: -burst concurrent identical requests against the
//     fresh spec. The server must return one byte-identical body to
//     all of them while evaluating only once (the run manifest's
//     serve.coalesced > 0 afterwards is the CI assertion).
//  2. Warm sustain: -conns workers hammer the now-cached spec for
//     -duration over keep-alive connections. Every response must be a
//     cache hit byte-identical to the burst's; the phase yields the
//     req/s and latency-percentile numbers.
//
// The report is printed as JSON (and written to -out when given):
//
//	{"burst":N,"warm_requests":N,"warm_seconds":S,"warm_rps":R,
//	 "p50_ms":...,"p99_ms":...,"errors":0,
//	 "cold_ns_op":...,"cold_b_op":...,"cold_allocs_op":...}
//
// The cold_* fields come from an in-process microbenchmark of the
// handler's miss path (decode → validate → key → encode → alias, stub
// evaluator) — the per-request cost the HTTP phases cannot isolate,
// recorded in the same artifact so cold-path regressions are visible
// next to the throughput numbers.
//
// loadgen exits non-zero on any non-200 response, body mismatch, or
// transport error — load that corrupts answers is not load survived.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/serve"
)

type report struct {
	Burst        int     `json:"burst"`
	WarmRequests int64   `json:"warm_requests"`
	WarmSeconds  float64 `json:"warm_seconds"`
	WarmRPS      float64 `json:"warm_rps"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	Errors       int64   `json:"errors"`

	// Cold-path microbenchmark (in-process, stub evaluator).
	ColdNsOp     int64 `json:"cold_ns_op"`
	ColdBOp      int64 `json:"cold_b_op"`
	ColdAllocsOp int64 `json:"cold_allocs_op"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "powerd address (host:port)")
	spec := flag.String("spec", `{"bench":"Si256_hse","nodes":1,"cap_w":250}`, "request body for /v1/measure")
	burst := flag.Int("burst", 64, "cold-phase concurrent identical requests")
	duration := flag.Duration("duration", 3*time.Second, "warm-phase length")
	conns := flag.Int("conns", 8, "warm-phase worker connections")
	out := flag.String("out", "", "also write the JSON report to this file")
	flag.Parse()

	url := "http://" + *addr + "/v1/measure"
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *conns + *burst,
			MaxIdleConnsPerHost: *conns + *burst,
		},
		Timeout: 2 * time.Minute,
	}

	rep, err := drive(client, url, *spec, *burst, *conns, *duration)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	rep.ColdNsOp, rep.ColdBOp, rep.ColdAllocsOp = coldPath()
	enc, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
}

func drive(client *http.Client, url, spec string, burst, conns int, duration time.Duration) (report, error) {
	rep := report{Burst: burst}

	// Phase 1: cold coalescing burst. All requests identical; the
	// canonical body every later response must match comes back here.
	bodies := make([][]byte, burst)
	errs := make([]error, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i], errs[i] = post(client, url, spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < burst; i++ {
		if errs[i] != nil {
			return rep, fmt.Errorf("burst request %d: %w", i, errs[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			return rep, fmt.Errorf("burst request %d: body differs under concurrency", i)
		}
	}
	canonical := bodies[0]

	// Phase 2: warm sustain on keep-alive connections.
	var total, errCount atomic.Int64
	lat := make([][]float64, conns)
	stop := time.Now().Add(duration)
	wg = sync.WaitGroup{}
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				t0 := time.Now()
				body, err := post(client, url, spec)
				d := time.Since(t0)
				if err != nil || !bytes.Equal(body, canonical) {
					errCount.Add(1)
					continue
				}
				lat[c] = append(lat[c], float64(d)/1e6)
				total.Add(1)
			}
		}(c)
	}
	start := time.Now()
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if d := duration.Seconds(); elapsed < d {
		elapsed = d
	}

	var all []float64
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Float64s(all)
	rep.WarmRequests = total.Load()
	rep.WarmSeconds = elapsed
	rep.WarmRPS = float64(total.Load()) / elapsed
	rep.Errors = errCount.Load()
	if len(all) > 0 {
		rep.P50Ms = all[len(all)/2]
		rep.P99Ms = all[len(all)*99/100]
	}
	if rep.Errors > 0 {
		return rep, fmt.Errorf("%d warm requests failed or mismatched", rep.Errors)
	}
	if rep.WarmRequests == 0 {
		return rep, fmt.Errorf("warm phase completed no requests")
	}
	return rep, nil
}

// coldPath benchmarks the handler's cold request path in process: a
// fresh serve pipeline with a stub evaluator, driven with a rotating
// set of distinct binding caps so every request misses both cache
// indexes (the tiny entry bound keeps the LRU churning). The numbers
// isolate the serving layer's own per-miss cost — body read, strict
// decode, validation, canonical keying, encode, alias registration —
// which the HTTP phases cannot separate from transport and evaluation.
func coldPath() (nsOp, bOp, allocsOp int64) {
	s := serve.New(serve.Config{
		Measure:      func(core.MeasureSpec) (core.JobProfile, error) { return core.JobProfile{}, nil },
		CacheEntries: 64,
	})
	h := s.Handler()
	bodies := make([][]byte, 512)
	for i := range bodies {
		// Caps stay strictly below the TDP: at or above it they
		// canonicalize to uncapped and would share one warm entry.
		bodies[i] = []byte(`{"bench":"Si256_hse","cap_w":` +
			strconv.FormatFloat(100+float64(i)/2, 'g', -1, 64) + `}`)
	}
	body := &replayBody{}
	req := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/v1/measure"}, Body: body}
	w := &discardWriter{h: make(http.Header, 4)}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			body.r.Reset(bodies[i%len(bodies)])
			h.ServeHTTP(w, req)
			w.reset()
		}
	})
	return res.NsPerOp(), res.AllocedBytesPerOp(), res.AllocsPerOp()
}

// replayBody replays a request body from a resettable reader without
// reallocating; discardWriter swallows responses reusing one header
// map — together they keep the harness out of the measurement.
type replayBody struct{ r bytes.Reader }

func (b *replayBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *replayBody) Close() error               { return nil }

type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) reset() {
	for k := range d.h {
		delete(d.h, k)
	}
}

func post(client *http.Client, url, spec string) ([]byte, error) {
	resp, err := client.Post(url, "application/json", strings.NewReader(spec))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}
