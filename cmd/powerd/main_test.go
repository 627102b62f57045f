package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

const testSpec = `{"bench":"Si256_hse","nodes":1,"cap_w":250}`

// startDaemon runs the daemon in the background and returns its bound
// address plus a channel carrying run's error after shutdown.
func startDaemon(t *testing.T, opts options) (string, chan error) {
	t.Helper()
	return startDaemonTo(t, opts, io.Discard)
}

// startDaemonTo is startDaemon with the daemon's stderr sent to
// stderr, which only run writes until it returns.
func startDaemonTo(t *testing.T, opts options, stderr io.Writer) (string, chan error) {
	t.Helper()
	ready := make(chan string, 1)
	opts.ready = ready
	if opts.addr == "" {
		opts.addr = "127.0.0.1:0"
	}
	errc := make(chan error, 1)
	go func() { errc <- run(opts, io.Discard, stderr) }()
	select {
	case addr := <-ready:
		return addr, errc
	case err := <-errc:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never came up")
	}
	return "", nil
}

func sigterm(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

func waitExit(t *testing.T, errc chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}
}

// TestGracefulShutdown: the daemon serves real measurements, then a
// SIGTERM drains it cleanly and the manifest lands with serve.*
// metrics filled in.
func TestGracefulShutdown(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "manifest.json")
	addr, errc := startDaemon(t, options{hold: -1, manifestPath: manifest, drainTimeout: 30 * time.Second})

	// One real measurement, then a warm repeat.
	var bodies [2][]byte
	for i := range bodies {
		resp, err := http.Post("http://"+addr+"/v1/measure", "application/json", strings.NewReader(testSpec))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d body %s", i, resp.StatusCode, b)
		}
		bodies[i] = b
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("warm repeat returned different bytes")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sigterm(t)
	waitExit(t, errc)

	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	var m struct {
		Tool    string `json:"tool"`
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest not JSON: %v", err)
	}
	if m.Tool != "powerd" {
		t.Fatalf("manifest tool %q", m.Tool)
	}
	if m.Metrics.Counters["serve.requests"] < 2 {
		t.Fatalf("serve.requests = %d, want >= 2", m.Metrics.Counters["serve.requests"])
	}
	if m.Metrics.Counters["serve.hits"] < 1 {
		t.Fatalf("serve.hits = %d, want >= 1 (the warm repeat)", m.Metrics.Counters["serve.hits"])
	}

	// After shutdown the listener is gone.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("listener still accepting after graceful shutdown")
	}
}

// TestTelemetryPumpReturns: with -telemetry, a measurement's samples
// stream into the OMNI store, and shutdown closes the pump's
// subscription and waits for the pump to store them and return.
func TestTelemetryPumpReturns(t *testing.T) {
	var stderr bytes.Buffer
	addr, errc := startDaemonTo(t, options{hold: -1, telemetry: true, drainTimeout: 30 * time.Second}, &stderr)
	measureOnce(t, addr)
	sigterm(t)
	waitExit(t, errc)
	var pumped int
	for _, line := range strings.Split(stderr.String(), "\n") {
		if _, err := fmt.Sscanf(line, "powerd: pumped %d telemetry samples", &pumped); err == nil {
			break
		}
	}
	if pumped == 0 {
		t.Fatalf("no samples pumped before exit; stderr:\n%s", stderr.String())
	}
}

// TestOneshotMatchesHTTP pins the CLI↔HTTP determinism contract: the
// -oneshot body for a spec is byte-identical to the served response.
func TestOneshotMatchesHTTP(t *testing.T) {
	addr, errc := startDaemon(t, options{hold: -1, drainTimeout: 10 * time.Second})
	resp, err := http.Post("http://"+addr+"/v1/measure", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d body %s", resp.StatusCode, served)
	}
	sigterm(t)
	waitExit(t, errc)

	var stdout bytes.Buffer
	if err := run(options{oneshot: testSpec}, &stdout, io.Discard); err != nil {
		t.Fatalf("oneshot: %v", err)
	}
	if !bytes.Equal(stdout.Bytes(), served) {
		t.Fatalf("oneshot bytes differ from served bytes:\n%s\n%s", stdout.Bytes(), served)
	}
}

// TestOneshotInvalidSpec: a bad spec exits non-zero with the error
// JSON on stdout.
func TestOneshotInvalidSpec(t *testing.T) {
	var stdout bytes.Buffer
	err := run(options{oneshot: `{"bench":"NoSuchBench"}`}, &stdout, io.Discard)
	if err == nil {
		t.Fatal("invalid oneshot spec succeeded")
	}
	if !strings.Contains(stdout.String(), "unknown benchmark") {
		t.Fatalf("stdout %q missing error body", stdout.String())
	}
}

// TestHoldElapses: a positive -hold returns without any signal.
func TestHoldElapses(t *testing.T) {
	_, errc := startDaemon(t, options{hold: 50 * time.Millisecond, drainTimeout: 10 * time.Second})
	waitExit(t, errc)
}

// cacheEntries counts the entry files under a cache directory.
func cacheEntries(t *testing.T, dir string) int {
	t.Helper()
	entries, err := filepath.Glob(filepath.Join(dir, "*", "*.cache"))
	if err != nil {
		t.Fatal(err)
	}
	return len(entries)
}

func measureOnce(t *testing.T, addr string) {
	t.Helper()
	resp, err := http.Post("http://"+addr+"/v1/measure", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

// TestStartupLeavesDiskTierUnlisted: start-up does not list the
// -cache-dir directory. The store lists it once, before its first
// write, and sweeps orphaned tmp-* files then; an orphan that survives
// start-up shows that nothing listed it.
func TestStartupLeavesDiskTierUnlisted(t *testing.T) {
	dir := t.TempDir()
	orphans := []string{filepath.Join(dir, "tmp-789"), filepath.Join(dir, "ab", "tmp-123456")}
	for _, p := range orphans {
		if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("partial write"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	_, errc := startDaemon(t, options{hold: -1, cacheDir: dir, flushTick: time.Hour, drainTimeout: 10 * time.Second})
	for _, p := range orphans {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("orphan %s gone after start-up: %v", p, err)
		}
	}
	sigterm(t)
	waitExit(t, errc)
}

// TestCacheDirFlushed: with -cache-dir, the daemon writes what it
// computed on its flush ticker while serving, and again after the drain
// at shutdown; -oneshot writes before it exits.
func TestCacheDirFlushed(t *testing.T) {
	dir := t.TempDir()
	addr, errc := startDaemon(t, options{hold: -1, cacheDir: dir, flushTick: 10 * time.Millisecond, drainTimeout: 10 * time.Second})
	measureOnce(t, addr)
	for deadline := time.Now().Add(10 * time.Second); cacheEntries(t, dir) == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no entry written by the flush ticker while serving")
		}
	}
	sigterm(t)
	waitExit(t, errc)

	dir = t.TempDir()
	addr, errc = startDaemon(t, options{hold: -1, cacheDir: dir, flushTick: time.Hour, drainTimeout: 10 * time.Second})
	measureOnce(t, addr)
	sigterm(t)
	waitExit(t, errc)
	if cacheEntries(t, dir) == 0 {
		t.Fatal("no entry written at shutdown")
	}

	dir = t.TempDir()
	if err := run(options{oneshot: testSpec, cacheDir: dir}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if cacheEntries(t, dir) == 0 {
		t.Fatal("no entry written by -oneshot")
	}
}
