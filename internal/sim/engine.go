// Package sim is a minimal discrete-event simulation engine: a virtual
// clock and an ordered event queue. Hour-long VASP jobs, 0.1-second
// telemetry sampling, and 30-second scheduler cycles all run in
// virtual time, so a full paper experiment executes in milliseconds of
// wall time.
//
// The engine is deliberately single-threaded: determinism matters more
// than parallel speed for a reproduction, and events at equal
// timestamps fire in scheduling order (FIFO), which keeps every run
// bit-identical.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"

	"vasppower/internal/obs"
)

// Metrics counts events fired across every engine in the process — the
// denominator of "where does wall-clock go" for a sweep that runs
// millions of virtual-time events. Install with SetMetrics; the nil
// default costs one atomic load per fired event.
type Metrics struct {
	Steps *obs.Counter
}

// NewMetrics registers the engine metric set under "sim." in reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{Steps: reg.Counter("sim.steps")}
}

var metrics atomic.Pointer[Metrics]

// SetMetrics installs (or, with nil, removes) the process-wide engine
// metrics. Install once at startup, before simulations run.
func SetMetrics(m *Metrics) { metrics.Store(m) }

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; cancelling an already-fired event is a no-op.
//
// Handle lifetime: once an event has fired, or has been cancelled and
// subsequently collected from the queue, the engine recycles the Event
// for a later At/After call (sweeps schedule millions of events, and
// pooling keeps them out of the allocator). A handle is therefore only
// good until its event fires or is cancelled — drop it after either,
// and never call Cancel on a handle whose event may already have
// fired.
type Event struct {
	at        float64
	fn        func()
	fnArg     func(int) // set instead of fn by AtArg/AfterArg
	arg       int
	cancelled bool
	fired     bool
}

// Time returns the virtual time at which the event is scheduled.
func (ev *Event) Time() float64 { return ev.at }

// Cancel prevents the event from firing. Safe to call multiple times.
func (ev *Event) Cancel() { ev.cancelled = true }

// Engine is the simulation core. The zero value is ready to use and
// starts at time 0.
type Engine struct {
	now  float64
	pq   eventHeap
	seq  uint64
	free []*Event // recycled Events; see Event's handle-lifetime note
}

// New returns a fresh engine at virtual time 0.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of events still queued (including
// cancelled-but-unpopped events).
func (e *Engine) Pending() int { return len(e.pq) }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics: it indicates a simulator bug, and silently reordering time
// would corrupt every power trace built on top of the engine.
func (e *Engine) At(t float64, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", t))
	}
	ev := e.alloc(t, fn)
	e.pq.push(heapEntry{at: t, seq: e.seq, ev: ev})
	e.seq++
	return ev
}

// AtArg schedules fn(arg) at absolute virtual time t. It behaves like
// At but carries an integer argument inside the pooled Event, so a
// caller scheduling one event per work item (the scheduler schedules
// one completion per job) can reuse a single long-lived callback
// instead of allocating a fresh closure per item — the difference
// between O(jobs) closures and zero steady-state allocations.
func (e *Engine) AtArg(t float64, fn func(int), arg int) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", t))
	}
	ev := e.alloc(t, nil)
	ev.fnArg = fn
	ev.arg = arg
	e.pq.push(heapEntry{at: t, seq: e.seq, ev: ev})
	e.seq++
	return ev
}

// AfterArg schedules fn(arg) delay seconds from now.
func (e *Engine) AfterArg(delay float64, fn func(int), arg int) *Event {
	return e.AtArg(e.now+delay, fn, arg)
}

// alloc takes an Event from the free list (resetting every field) or
// allocates a fresh one. The free list is bounded by the peak number
// of pending events, so it needs no cap of its own.
func (e *Engine) alloc(t float64, fn func()) *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: t, fn: fn}
		return ev
	}
	return &Event{at: t, fn: fn}
}

// recycle returns a popped event to the free list. The callback is
// released immediately so pooled events never pin closures (and the
// node sensors they capture) across simulations.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.fnArg = nil
	e.free = append(e.free, ev)
}

// After schedules fn delay seconds from now. Negative delays panic.
func (e *Engine) After(delay float64, fn func()) *Event {
	return e.At(e.now+delay, fn)
}

// Step fires the next pending event, advancing the clock to its time.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	for len(e.pq) > 0 {
		ev := e.pq.pop()
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		ev.fired = true
		if m := metrics.Load(); m != nil {
			m.Steps.Add(1)
		}
		if ev.fnArg != nil {
			ev.fnArg(ev.arg)
		} else {
			ev.fn()
		}
		// Recycle only after fn returns: fn may consult the handle (a
		// Ticker's arm wrapper does) and may itself schedule new events
		// from the free list.
		e.recycle(ev)
		return true
	}
	return false
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ t, then advances the clock to
// exactly t (even if no event lands there).
func (e *Engine) RunUntil(t float64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	for len(e.pq) > 0 {
		// Peek.
		next := e.pq[0].ev
		if next.cancelled {
			e.recycle(e.pq.pop())
			continue
		}
		if next.at > t {
			break
		}
		e.Step()
	}
	e.now = t
}

// Ticker fires a callback at a fixed period until stopped. The first
// tick fires one period after creation (matching a polling sampler
// that reports at the end of each interval).
type Ticker struct {
	engine  *Engine
	period  float64
	fn      func(now float64)
	ev      *Event
	tick    func() // the arm callback, allocated once per Ticker
	stopped bool
}

// Every creates and starts a Ticker with the given period (seconds).
// It panics if period <= 0.
func (e *Engine) Every(period float64, fn func(now float64)) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.tick = func() {
		// This event is firing, so its handle is about to go stale
		// (the engine recycles fired events): drop it before running
		// the callback so a Stop never cancels a recycled event.
		t.ev = nil
		if t.stopped {
			return
		}
		t.fn(t.engine.Now())
		if !t.stopped {
			t.arm()
		}
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.engine.After(t.period, t.tick)
}

// Stop halts the ticker. Safe to call from within the tick callback,
// and safe to call multiple times.
func (t *Ticker) Stop() {
	t.stopped = true
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

// heapEntry is one queued event with its ordering key stored inline,
// so sifting compares keys in the heap's own array instead of chasing
// every Event pointer.
type heapEntry struct {
	at  float64
	seq uint64
	ev  *Event
}

// eventHeap is a binary min-heap of events on (time, sequence), so
// ties fire FIFO. Sequence numbers are unique, which makes the order
// total: any correct heap pops the same sequence of events.
type eventHeap []heapEntry

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(x heapEntry) {
	q := append(*h, x)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = x
	*h = q
}

// pop removes and returns the earliest event; the heap must be
// non-empty.
func (h *eventHeap) pop() *Event {
	q := *h
	n := len(q) - 1
	top := q[0].ev
	x := q[n]
	q[n] = heapEntry{}
	q = q[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(x) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = x
	}
	*h = q
	return top
}
