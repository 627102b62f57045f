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

// event is a scheduled callback. Once it has fired, the engine recycles
// it for a later At call: sweeps schedule millions of events, and
// pooling keeps them out of the allocator.
type event struct {
	at    float64
	fn    func()
	fnArg func(int) // set instead of fn by AtArg
	arg   int
}

// Engine is the simulation core. The zero value is ready to use and
// starts at time 0.
type Engine struct {
	now  float64
	pq   eventHeap
	seq  uint64
	free []*event // recycled events
}

// New returns a fresh engine at virtual time 0.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics: it indicates a simulator bug, and silently reordering time
// would corrupt every power trace built on top of the engine.
func (e *Engine) At(t float64, fn func()) { e.schedule(t).fn = fn }

// AtArg schedules fn(arg) at absolute virtual time t. It behaves like
// At but carries an integer argument inside the pooled event, so a
// caller scheduling one event per work item (the scheduler schedules
// one completion per job) can reuse a single long-lived callback
// instead of allocating a fresh closure per item — the difference
// between O(jobs) closures and zero steady-state allocations.
func (e *Engine) AtArg(t float64, fn func(int), arg int) {
	ev := e.schedule(t)
	ev.fnArg = fn
	ev.arg = arg
}

// schedule queues a callback-less event at t.
func (e *Engine) schedule(t float64) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		panic(fmt.Sprintf("sim: scheduling at non-finite time %v", t))
	}
	ev := e.alloc(t)
	e.pq.push(heapEntry{at: t, seq: e.seq, ev: ev})
	e.seq++
	return ev
}

// alloc takes an event from the free list (resetting every field) or
// allocates a fresh one. The free list is bounded by the peak number
// of pending events, so it needs no cap of its own.
func (e *Engine) alloc(t float64) *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = event{at: t}
		return ev
	}
	return &event{at: t}
}

// recycle returns a popped event to the free list. The callback is
// released immediately so pooled events never pin closures (and the
// node sensors they capture) across simulations.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	ev.fnArg = nil
	e.free = append(e.free, ev)
}

// Step fires the next pending event, advancing the clock to its time.
// It returns false when no events remain.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := e.pq.pop()
	e.now = ev.at
	if m := metrics.Load(); m != nil {
		m.Steps.Add(1)
	}
	if ev.fnArg != nil {
		ev.fnArg(ev.arg)
	} else {
		ev.fn()
	}
	// Recycle only after fn returns: fn may itself schedule new events
	// from the free list.
	e.recycle(ev)
	return true
}

// heapEntry is one queued event with its ordering key stored inline,
// so sifting compares keys in the heap's own array instead of chasing
// every event pointer.
type heapEntry struct {
	at  float64
	seq uint64
	ev  *event
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
func (h *eventHeap) pop() *event {
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
