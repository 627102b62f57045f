package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// procTimeout bounds one program invocation; every workload's longest
// call takes a few seconds.
const procTimeout = 60 * time.Second

// procRun is one finished program invocation.
type procRun struct {
	wall   float64 // seconds from start to exit, as the harness saw it
	rssKB  int64   // peak resident set size of the process, KiB
	stdout []byte
}

// command prepares an invocation of one of the built binaries, with
// temporary files kept inside the run's scratch directory.
func (e *env) command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, filepath.Join(e.bin, name), args...)
	cmd.Dir = e.work
	cmd.Env = append(os.Environ(), "TMPDIR="+e.work)
	// A child outlives nothing: if the harness dies, the kernel stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// run executes a built binary to completion and reports its wall time,
// peak RSS and stdout. A non-zero exit is an error carrying stderr.
func (e *env) run(name string, args ...string) (procRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := e.command(ctx, name, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start).Seconds()
	if err != nil {
		return procRun{}, fmt.Errorf("%s %s: %w: %s", name, strings.Join(args, " "), err,
			strings.TrimSpace(stderr.String()))
	}
	return procRun{wall: wall, rssKB: maxRSS(cmd.ProcessState), stdout: stdout.Bytes()}, nil
}

// maxRSS reads the peak resident set size (KiB on Linux) from a
// finished process's rusage.
func maxRSS(ps *os.ProcessState) int64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// setupVersion is the set-up time of a CLI workload: binary start plus
// package initialization, measured as the median of several -version
// invocations.
func (e *env) setupVersion(name string) (float64, error) {
	const reps = 25
	walls := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		r, err := e.run(name, "-version")
		if err != nil {
			return 0, err
		}
		walls = append(walls, r.wall)
	}
	return median(walls), nil
}

// loop calls fn with indices 0..n-1, where n is the measured window
// divided by the workload's nominal operation time (at least 4). A
// fixed count keeps each run's work, and the tail percentile its
// sample supports, the same however fast the host happens to be; a run
// takes about --seconds on a host as fast as the one the nominal times
// were taken on. An error from fn stops the loop.
func (e *env) loop(nominal time.Duration, fn func(i int) error) error {
	n := max(4, int(math.Round(float64(e.seconds)/float64(nominal))))
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// cliMetrics fills the end-to-end metrics of a workload whose
// operation is one CLI invocation: wall_s and p50_ms are the median
// run, p99_ms the tail the sample supports (the slowest run for fewer
// than 20 runs), sweep_p50_ms the median run (every operation is a
// whole batch job), goodput_rps the share of runs that were correct
// and within the limit per median run time, and peak_rss_mb the
// largest peak RSS of any run.
func (e *env) cliMetrics(o *outcome, walls []float64, okWithin int, rssKB int64) {
	ms := make([]float64, len(walls))
	for i, w := range walls {
		ms[i] = w * 1000
	}
	t := tailOf(ms, 99)
	o.m["wall_s"] = median(walls)
	o.m["p50_ms"] = median(ms)
	o.m["p99_ms"] = t.Value
	o.m["sweep_p50_ms"] = median(ms)
	o.m["goodput_rps"] = 0
	if len(walls) > 0 {
		o.m["goodput_rps"] = float64(okWithin) / float64(len(walls)) / median(walls)
	}
	o.m["peak_rss_mb"] = float64(rssKB) / 1024
	fmt.Fprintf(e.log, "runs: n=%d median %.4f s, tail %s ms, spread %.3f\n", len(walls), median(walls), t, spread(walls))
}
