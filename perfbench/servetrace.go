package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vasppower/internal/core"
	"vasppower/internal/experiments"
	"vasppower/internal/obs"
	"vasppower/internal/serve"
)

// benchHeader carries a request's index from the load generator to the
// server-side timing wrapper.
const benchHeader = "X-Perfbench-Req"

// engineCall is one timed call into the measurement engine, with the
// canonical keys it evaluated.
type engineCall struct {
	iv   interval
	keys []string
}

// serveTrace records, around an in-process serve.Server, each
// request's handler interval and each engine call. Engine keys seen for
// the first time during the window were computed there (the engine's
// memory cache starts empty and the window runs after the warm-up).
type serveTrace struct {
	t0       time.Time
	mu       sync.Mutex
	handlers map[int]interval
	calls    []engineCall
	seen     map[string]bool
	inWindow bool
	computed []measureSpec
	queueMax int64
}

func newServeTrace() *serveTrace {
	return &serveTrace{t0: time.Now(), handlers: map[int]interval{}, seen: map[string]bool{}}
}

func (t *serveTrace) now() float64 { return time.Since(t.t0).Seconds() }

func (t *serveTrace) engine(specs []core.MeasureSpec, start, end float64) {
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = experiments.SpecKey(s)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls = append(t.calls, engineCall{interval{start, end}, keys})
	for i, k := range keys {
		if t.seen[k] {
			continue
		}
		t.seen[k] = true
		if t.inWindow {
			s := specs[i]
			t.computed = append(t.computed, measureSpec{bench: s.Bench.Name, nodes: s.Nodes, repeats: s.Repeats, capW: s.CapW, seed: s.Seed})
		}
	}
}

// config wraps the engine entry points the server would use by default
// (experiments.CachedMeasureSpec and CachedMeasureGroup) with timers.
func (t *serveTrace) config(reg *obs.Registry) serve.Config {
	return serve.Config{
		Workers: 1,
		Reg:     reg,
		Measure: func(spec core.MeasureSpec) (core.JobProfile, error) {
			start := t.now()
			jp, err := experiments.CachedMeasureSpec(spec)
			t.engine([]core.MeasureSpec{spec}, start, t.now())
			return jp, err
		},
		MeasureGroup: func(spec core.MeasureSpec, caps []float64) ([]core.JobProfile, error) {
			start := t.now()
			jps, err := experiments.CachedMeasureGroup(spec, caps)
			end := t.now()
			specs := make([]core.MeasureSpec, len(caps))
			for i, c := range caps {
				specs[i] = spec
				specs[i].CapW = c
			}
			t.engine(specs, start, end)
			return jps, err
		},
	}
}

// wrap times each request's handler and samples the admission queue
// depth at every handler boundary.
func (t *serveTrace) wrap(srv *serve.Server) http.Handler {
	h := srv.Handler()
	depth := srv.Metrics().QueueDepth
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(benchHeader))
		start := t.now()
		d0 := depth.Value()
		h.ServeHTTP(w, r)
		end := t.now()
		d1 := depth.Value()
		t.mu.Lock()
		t.queueMax = max(t.queueMax, d0, d1)
		if err == nil {
			t.handlers[id] = interval{start, end}
		}
		t.mu.Unlock()
	})
}

// serveInProcess serves srv's handler (through wrap when t is set) on a
// loopback listener, runs fn against its base URL, then shuts it down.
func serveInProcess(srv *serve.Server, t *serveTrace, fn func(base string) error) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if t != nil {
		h = t.wrap(srv)
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1) // one send
	go func() { served <- hs.Serve(ln) }()
	runErr := fn("http://" + ln.Addr().String())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutErr := hs.Shutdown(ctx)
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return errors.Join(runErr, err)
	}
	return errors.Join(runErr, shutErr)
}

// powerdTraced runs the mix twice against in-process servers, each for
// half the window, with the engine's memory cache cleared before each:
// once as powerd serves (no wrappers, no registry) and once with the
// engine timers, the handler timer and a metrics registry attached. The
// difference in mean latency is the tracing overhead; the second run
// gives the layer metrics.
func (e *env) powerdTraced(o *outcome, plan mixPlan) error {
	half := plan
	half.reqs = plan.reqs[:max(1, len(plan.reqs)/2)]
	conns := mixConns()

	var plain []reqResult
	err := serveInProcess(serve.New(serve.Config{Workers: 1}), nil, func(base string) error {
		if err := warmUp(base, half.warm); err != nil {
			return err
		}
		plain = sendOpenLoop(base, half.reqs, conns, benchHeader)
		return nil
	})
	if err != nil {
		return err
	}

	experiments.ResetCache()
	reg := obs.NewRegistry()
	experiments.Instrument(reg)
	tr := newServeTrace()
	srv := serve.New(tr.config(reg))
	var traced []reqResult
	var windowStart, windowEnd float64
	err = serveInProcess(srv, tr, func(base string) error {
		if err := warmUp(base, half.warm); err != nil {
			return err
		}
		tr.mu.Lock()
		tr.inWindow = true
		tr.mu.Unlock()
		windowStart = tr.now()
		traced = sendOpenLoop(base, half.reqs, conns, benchHeader)
		windowEnd = tr.now()
		return nil
	})
	snap := reg.Snapshot()
	experiments.Instrument(nil)
	if err != nil {
		return err
	}
	for _, res := range [][]reqResult{plain, traced} {
		scratch := newOutcome()
		e.mixStats(scratch, half.reqs, res)
		o.attempted += scratch.attempted
		o.failed += scratch.failed
		o.gateErrs = append(o.gateErrs, scratch.gateErrs...)
	}
	checkBodies(o, e.derive("powerd-gate"), half.reqs, traced)

	l := newLayers()
	l.fromSnapshot(snap, 1, windowEnd-windowStart)
	selfTail, lateTail, waitTail := tr.attribute(l, half.reqs, traced, windowStart, windowEnd)
	fmt.Fprintf(e.log, "serve self time p50=%.4g ms %s ms; generator lateness %s ms; connection wait %s ms; %d engine keys computed in the window\n",
		l.m["serve.self_p50_ms"], selfTail, lateTail, waitTail, len(tr.computed))
	l.m["trace_overhead_pct"] = (meanLatencyMS(traced)/meanLatencyMS(plain) - 1) * 100
	if err := l.replay(tr.computed); err != nil {
		return err
	}
	for k, v := range l.m {
		o.m[k] = v
	}
	return nil
}

func meanLatencyMS(res []reqResult) float64 {
	sum := 0.0
	for _, r := range res {
		sum += r.latencyMS()
	}
	return sum / float64(len(res))
}

// attribute computes the serving layer's time metrics for the traced
// window: engine busy time, each measure or sweep request's own serving
// time (its handler interval minus the engine calls for its keys, which
// covers waiting on a coalesced or batched evaluation), generator
// lateness, and what neither the handler nor the engine explains.
func (t *serveTrace) attribute(l *layers, reqs []request, res []reqResult, winStart, winEnd float64) (selfTail, lateTail, waitTail tail) {
	t.mu.Lock()
	defer t.mu.Unlock()
	byKey := map[string][]int{}
	for ci, c := range t.calls {
		if c.iv.End < winStart || c.iv.Start > winEnd {
			continue
		}
		l.m["serve.engine_s"] += c.iv.dur()
		for _, k := range c.keys {
			byKey[k] = append(byKey[k], ci)
		}
	}
	var self, late, connWait []float64
	handlerSum, latencySum := 0.0, 0.0
	for i, r := range res {
		late = append(late, r.lateMS())
		connWait = append(connWait, r.connWaitMS())
		latencySum += r.done - r.due
		hiv, ok := t.handlers[i]
		if !ok {
			continue
		}
		handlerSum += hiv.dur()
		if reqs[i].class == classSchedule {
			continue
		}
		var engine []interval
		seen := map[int]bool{}
		for _, k := range reqs[i].keys {
			for _, ci := range byKey[k] {
				if !seen[ci] {
					seen[ci] = true
					engine = append(engine, t.calls[ci].iv)
				}
			}
		}
		self = append(self, selfTime(hiv, engine)*1000)
	}
	selfTail, lateTail, waitTail = tailOf(self, 99), tailOf(late, 99), tailOf(connWait, 99)
	l.m["serve.self_p50_ms"] = median(self)
	l.m["serve.self_p99_ms"] = selfTail.Value
	l.m["serve.queue_depth_max"] = float64(t.queueMax)
	l.m["loadgen.late_p99_ms"] = lateTail.Value
	l.m["loadgen.conn_wait_p99_ms"] = waitTail.Value
	l.m["unattributed_s"] = latencySum - handlerSum
	return selfTail, lateTail, waitTail
}
