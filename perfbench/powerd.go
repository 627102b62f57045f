package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"vasppower/internal/experiments"
	"vasppower/internal/serve"
)

const (
	mixLimitMS = 250 // latency limit of one request, for goodput_rps
	// gateSample bounds how many fresh (cold) bodies per class the
	// correctness gate re-evaluates on a fresh server; every hot body is
	// checked.
	gateSample = 8
)

// mixConns is the load generator's connection count: at most nproc.
func mixConns() int { return min(2, runtime.NumCPU()) }

// reqResult is one request's fate, on the generator's clock (seconds
// since the window opened): when it was due, when the dispatcher handed
// it to the connection workers, when a connection took it up, and when
// its response had been read.
type reqResult struct {
	due, dispatched, sent, done float64
	status                      int
	body                        []byte
	err                         error
}

func (r reqResult) latencyMS() float64 { return (r.done - r.due) * 1000 }

// lateMS is how far behind its schedule the dispatcher handed the
// request out: the generator's own lag, not the server's.
func (r reqResult) lateMS() float64 { return (r.dispatched - r.due) * 1000 }

// connWaitMS is how long the request waited for a free connection
// after it was dispatched: the server holding earlier requests.
func (r reqResult) connWaitMS() float64 { return (r.sent - r.dispatched) * 1000 }

// sendOpenLoop sends reqs to base on an open-loop schedule: each
// request is handed out at its due time (request.at after the window
// opens) and is timed from then, whether or not a connection is free,
// so a stall shows in the latency of every request queued behind it.
// header, when set, is added to each request with the request's index
// as its value.
func sendOpenLoop(base string, reqs []request, conns int, header string) []reqResult {
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	results := make([]reqResult, len(reqs))
	jobs := make(chan int, len(reqs)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res := &results[i]
				res.sent = time.Since(t0).Seconds()
				req, err := http.NewRequest(http.MethodPost, base+reqs[i].path, bytes.NewReader(reqs[i].body))
				if err != nil {
					res.err = err
					res.done = time.Since(t0).Seconds()
					continue
				}
				if header != "" {
					req.Header.Set(header, strconv.Itoa(i))
				}
				resp, err := client.Do(req)
				if err == nil {
					res.status = resp.StatusCode
					res.body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				res.err = err
				res.done = time.Since(t0).Seconds()
			}
		}()
	}
	for i, r := range reqs {
		results[i].due = r.at
		if d := time.Until(t0.Add(time.Duration(r.at * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		// Stamped before the send: a worker may take the request up at
		// once, and the dispatcher must not touch it after that.
		results[i].dispatched = time.Since(t0).Seconds()
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// mixStats turns one window's results into the end-to-end metrics and
// records each request as an operation. A refused (429) or failed
// request counts as failed; one that fails for any other reason than
// load fails the correctness gate too.
func (e *env) mixStats(o *outcome, reqs []request, res []reqResult) {
	var all, sweeps []float64
	good := 0
	last := 0.0
	for i, r := range res {
		o.op()
		last = max(last, r.done)
		switch {
		case r.err != nil:
			o.gate("request %d (%s): %v", i, reqs[i].class, r.err)
			continue
		case r.status == http.StatusTooManyRequests:
			o.failed++
			continue
		case r.status != http.StatusOK:
			o.gate("request %d (%s %s): status %d: %s", i, reqs[i].class, reqs[i].body, r.status, bytes.TrimSpace(r.body))
			continue
		}
		ms := r.latencyMS()
		all = append(all, ms)
		if reqs[i].class == classSweep {
			sweeps = append(sweeps, ms)
		}
		if ms <= mixLimitMS {
			good++
		}
	}
	span := last - res[0].due
	t99 := tailOf(all, 99)
	o.m["wall_s"] = span
	o.m["p50_ms"] = median(all)
	o.m["p99_ms"] = t99.Value
	o.m["sweep_p50_ms"] = median(sweeps)
	o.m["goodput_rps"] = float64(good) / span
	fmt.Fprintf(e.log, "requests: p50=%.4g ms (n=%d) %s ms; sweeps p50=%.4g ms (n=%d); goodput %d within %d ms over %.3f s\n",
		median(all), len(all), t99, median(sweeps), len(sweeps), good, mixLimitMS, span)
}

// checkBodies is the powerd-mix correctness gate. Every 200 response to
// one request body must carry the same bytes, and those bytes must
// equal serve.Server.OneShot of the body on a fresh in-process server:
// for every hot body, and for a seeded sample of the cold ones.
func checkBodies(o *outcome, seed uint64, reqs []request, res []reqResult) {
	type seenBody struct {
		class reqClass
		path  string
		sum   [32]byte
		resp  []byte
	}
	bodies := map[string]*seenBody{}
	var order []string
	for i, r := range res {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		sum := sha256.Sum256(r.body)
		k := string(reqs[i].body)
		sb, ok := bodies[k]
		if !ok {
			bodies[k] = &seenBody{class: reqs[i].class, path: reqs[i].path, sum: sum, resp: r.body}
			order = append(order, k)
			continue
		}
		if sb.sum != sum {
			o.gate("request %d: body %s answered with different bytes than before", i, k)
		}
	}
	r := rand.New(rand.NewPCG(seed, 0x67617465))
	picked := map[reqClass]int{}
	// A fresh server over an empty engine cache recomputes every body.
	experiments.ResetCache()
	fresh := serve.New(serve.Config{})
	for _, k := range order {
		sb := bodies[k]
		if sb.class != classHot && sb.class != classVariant {
			if picked[sb.class] >= gateSample || r.IntN(4) != 0 {
				continue
			}
			picked[sb.class]++
		}
		status, want := fresh.OneShot(http.MethodPost, sb.path, []byte(k))
		if status != http.StatusOK || !bytes.Equal(want, sb.resp) {
			o.gate("%s %s: served bytes differ from OneShot on a fresh server (status %d)", sb.path, k, status)
		}
	}
}

// powerd is a running powerd process.
type powerd struct {
	cmd    *exec.Cmd
	cancel context.CancelFunc
	base   string // http://host:port
	done   chan struct{}
}

// startPowerd starts powerd on a free loopback port and waits until
// /healthz answers.
func (e *env) startPowerd() (*powerd, error) {
	ctx, cancel := context.WithCancel(context.Background())
	// -hold makes powerd exit on its own well after the run should have
	// stopped it.
	hold := (e.seconds + 2*time.Minute).String()
	cmd := e.command(ctx, "powerd", "-addr", "127.0.0.1:0", "-parallel", "1", "-hold", hold)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		cancel()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		cancel()
		return nil, err
	}
	p := &powerd{cmd: cmd, cancel: cancel, done: make(chan struct{})}
	addr := make(chan string, 1) // at most one send; never blocks the scanner
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "serving on http://"); ok && !sent {
				a, _, _ := strings.Cut(rest, " ")
				addr <- a
				sent = true
			}
		}
	}()
	select {
	case a := <-addr:
		p.base = "http://" + a
	case <-time.After(10 * time.Second):
		p.kill()
		return nil, errors.New("powerd did not report its address within 10 s")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, errors.New("powerd /healthz did not answer within 10 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts powerd down gracefully (SIGTERM), waits for it to exit and
// returns its peak RSS in KiB.
func (p *powerd) stop() (int64, error) {
	defer p.cancel()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return 0, err
	}
	exited := make(chan error, 1) // one send, read at most once
	go func() { <-p.done; exited <- p.cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			return 0, fmt.Errorf("powerd exit: %w", err)
		}
		return maxRSS(p.cmd.ProcessState), nil
	case <-time.After(30 * time.Second):
		p.cancel() // kills the process; Wait then returns
		<-exited
		return 0, errors.New("powerd did not drain within 30 s")
	}
}

func (p *powerd) kill() {
	p.cancel()
	<-p.done
	p.cmd.Wait()
}

// warmUp sends the set-up requests one at a time.
func warmUp(base string, warm []request) error {
	for _, r := range warm {
		resp, err := http.Post(base+r.path, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("warm-up %s %s: status %d", r.path, r.body, resp.StatusCode)
		}
	}
	return nil
}

// mixCapacity measures the mix's closed-loop throughput: the timed
// sequence, all due at once, sent over mixConns connections to a warmed
// powerd as fast as it answers. mixRate is a stated share of it.
func (e *env) mixCapacity() error {
	plan := newMix(e.derive("powerd-mix"), int(e.seconds.Seconds()*mixRate))
	for i := range plan.reqs {
		plan.reqs[i].at = 0
	}
	p, err := e.startPowerd()
	if err != nil {
		return err
	}
	if err := warmUp(p.base, plan.warm); err != nil {
		p.kill()
		return err
	}
	res := sendOpenLoop(p.base, plan.reqs, mixConns(), "")
	if _, err := p.stop(); err != nil {
		return err
	}
	last := 0.0
	for i, r := range res {
		if r.err != nil || r.status != http.StatusOK {
			return fmt.Errorf("request %d (%s): status %d: %v", i, plan.reqs[i].class, r.status, r.err)
		}
		last = max(last, r.done)
	}
	capacity := float64(len(res)) / last
	fmt.Printf("powerd-mix closed-loop capacity: %.1f req/s over %d connections (%d requests in %.3f s); offered %d req/s = %.0f%%\n",
		capacity, mixConns(), len(res), last, mixRate, 100*mixRate/capacity)
	return nil
}

// powerdMix drives powerd with the open-loop request mix. Set-up,
// made three times on fresh servers, is server start to /healthz plus
// the hot-set warm-up; the last server takes the timed window.
func powerdMix(e *env) (*outcome, error) {
	o := newOutcome()
	n := int(e.seconds.Seconds() * mixRate)
	plan := newMix(e.derive("powerd-mix"), n)
	if e.trace {
		return o, e.powerdTraced(o, plan)
	}
	var setups []float64
	var srv *powerd
	for k := 0; k < 3; k++ {
		start := time.Now()
		p, err := e.startPowerd()
		if err != nil {
			return nil, err
		}
		if err := warmUp(p.base, plan.warm); err != nil {
			p.kill()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if k < 2 {
			if _, err := p.stop(); err != nil {
				return nil, err
			}
			continue
		}
		srv = p
	}
	res := sendOpenLoop(srv.base, plan.reqs, mixConns(), "")
	rss, err := srv.stop()
	if err != nil {
		return nil, err
	}
	o.m["setup_s"] = median(setups)
	o.m["peak_rss_mb"] = float64(rss) / 1024
	e.mixStats(o, plan.reqs, res)
	checkBodies(o, e.derive("powerd-gate"), plan.reqs, res)
	return o, e.paperErr(o)
}
