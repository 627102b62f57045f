package serve

import (
	"bytes"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"vasppower/internal/obs"
)

// discardWriter is a minimal ResponseWriter for hot-path benchmarks:
// its header map is allocated once and reused, so the only allocations
// a benchmark observes are the handler's own.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func newDiscardWriter() *discardWriter {
	return &discardWriter{h: make(http.Header, 4)}
}

func (d *discardWriter) Header() http.Header { return d.h }
func (d *discardWriter) WriteHeader(code int) {
	d.status = code
}
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}
func (d *discardWriter) reset() {
	d.status = 0
	d.n = 0
	for k := range d.h {
		delete(d.h, k)
	}
}

// resettableBody replays the same request body every iteration
// without reallocating a reader.
type resettableBody struct{ r bytes.Reader }

func (b *resettableBody) Read(p []byte) (int, error) { return b.r.Read(p) }
func (b *resettableBody) Close() error               { return nil }

func newWarmServer(b *testing.B) (*Server, *http.Request, *resettableBody) {
	b.Helper()
	f := &fakeMeasure{}
	s := New(Config{Measure: f.fn, Reg: obs.NewRegistry()})
	// Prime the byte cache with one real round trip.
	req, _ := http.NewRequest(http.MethodPost, "/v1/measure", strings.NewReader(measureBody))
	w := newDiscardWriter()
	s.Handler().ServeHTTP(w, req)
	if w.status != 200 && w.status != 0 {
		b.Fatalf("priming request failed: status %d", w.status)
	}

	body := &resettableBody{}
	body.r.Reset([]byte(measureBody))
	warm := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: "/v1/measure"},
		Body:   body,
	}
	return s, warm, body
}

// BenchmarkWarmMeasure is the tentpole's headline number: a cached
// /v1/measure request through the full mux → lookup → write path.
// Target: 0 allocs/op, > 50k req/s on one core (ns/op < 20000).
func BenchmarkWarmMeasure(b *testing.B) {
	s, req, body := newWarmServer(b)
	h := s.Handler()
	w := newDiscardWriter()
	raw := []byte(measureBody)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.r.Reset(raw)
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if w.status != 0 && w.status != 200 {
		b.Fatalf("warm request failed: status %d", w.status)
	}
	if hits := s.Metrics().Hits.Value(); hits < int64(b.N) {
		b.Fatalf("only %d/%d hits — benchmark fell off the warm path", hits, b.N)
	}
}

// BenchmarkWarmMeasureParallel drives the warm path from all cores —
// the shard count should keep contention negligible.
func BenchmarkWarmMeasureParallel(b *testing.B) {
	s, _, _ := newWarmServer(b)
	h := s.Handler()
	raw := []byte(measureBody)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := newDiscardWriter()
		body := &resettableBody{}
		req := &http.Request{
			Method: http.MethodPost,
			URL:    &url.URL{Path: "/v1/measure"},
			Body:   body,
		}
		for pb.Next() {
			body.r.Reset(raw)
			h.ServeHTTP(w, req)
		}
	})
}

// BenchmarkCacheLookup isolates the byte-cache probe itself (the
// floor under the HTTP numbers).
func BenchmarkCacheLookup(b *testing.B) {
	c := newRespCache(1024)
	e := []byte("{}")
	body := []byte(measureBody)
	c.alias(body, e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.lookup(body) == nil {
			b.Fatal("lost the alias")
		}
	}
}

// BenchmarkColdMeasure measures the miss path with a trivial Measure:
// decode + validate + singleflight + encode + alias registration.
func BenchmarkColdMeasure(b *testing.B) {
	f := &fakeMeasure{}
	s := New(Config{Measure: f.fn, Reg: obs.NewRegistry(), CacheEntries: 64})
	h := s.Handler()
	w := newDiscardWriter()
	// Distinct cap per iteration defeats both cache indexes, so every
	// request pays the full evaluate-and-encode path. Caps stay strictly
	// below the TDP: at or above it they canonicalize to uncapped and
	// would all land on one warm canonical entry.
	bodies := make([][]byte, 512)
	for i := range bodies {
		bodies[i] = []byte(`{"bench":"Si256_hse","cap_w":` +
			strconv.FormatFloat(100+float64(i)/2, 'g', -1, 64) + `}`)
	}
	body := &resettableBody{}
	req := &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: "/v1/measure"},
		Body:   body,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.r.Reset(bodies[i%len(bodies)])
		h.ServeHTTP(w, req)
		w.reset()
	}
}

func itoa(n int) string {
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkWarmHTTP goes over a real TCP loopback connection with a
// hand-rolled client loop (no net/http client allocation noise) to
// sanity-check that the end-to-end server, not just the handler,
// sustains the target rate.
func BenchmarkWarmHTTP(b *testing.B) {
	f := &fakeMeasure{}
	s := New(Config{Measure: f.fn, Reg: obs.NewRegistry()})
	srv := &http.Server{Handler: s.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Skipf("loopback listen: %v", err)
	}
	defer ln.Close()
	go srv.Serve(ln)
	defer srv.Close()

	addr := ln.Addr().String()
	reqBytes := []byte("POST /v1/measure HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		itoa(len(measureBody)) + "\r\n\r\n" + measureBody)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	rd := newChunkReader(conn)
	// Prime.
	if err := roundTrip(conn, rd, reqBytes); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := roundTrip(conn, rd, reqBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func roundTrip(conn io.ReadWriter, rd *chunkReader, req []byte) error {
	if _, err := conn.Write(req); err != nil {
		return err
	}
	return rd.readResponse()
}

// chunkReader consumes one HTTP/1.1 response per call, reusing its
// buffer, by scanning for the header terminator and Content-Length.
type chunkReader struct {
	r   io.Reader
	buf []byte
	n   int
}

func newChunkReader(r io.Reader) *chunkReader {
	return &chunkReader{r: r, buf: make([]byte, 64<<10)}
}

func (c *chunkReader) readResponse() error {
	c.n = 0
	for {
		n, err := c.r.Read(c.buf[c.n:])
		if err != nil {
			return err
		}
		c.n += n
		head := c.buf[:c.n]
		if i := bytes.Index(head, []byte("\r\n\r\n")); i >= 0 {
			cl := contentLength(head[:i])
			if c.n >= i+4+cl {
				return nil
			}
		}
	}
}

func contentLength(head []byte) int {
	i := bytes.Index(head, []byte("Content-Length: "))
	if i < 0 {
		return 0
	}
	n := 0
	for _, b := range head[i+len("Content-Length: "):] {
		if b < '0' || b > '9' {
			break
		}
		n = n*10 + int(b-'0')
	}
	return n
}
