package serve

import (
	"context"
	"errors"
	"sync"
)

// ErrSaturated is returned by Limiter.Acquire when the server is at
// capacity AND the waiting queue is full — the request should be shed
// with 429 and a Retry-After hint rather than queued into unbounded
// latency. Bounding the queue is what turns overload into fast
// failure instead of collapse: every queued request still costs its
// caller the full queue drain time, so past a point refusing is
// kinder than accepting.
var ErrSaturated = errors.New("serve: at capacity, queue full")

// Limiter is the admission gate: a weighted semaphore (cheap requests
// weigh 1, a sweep weighs by its point count) with a bounded FIFO
// waiting queue. The warm response-cache path bypasses it entirely —
// admission protects evaluation capacity, and a byte-cache hit
// evaluates nothing.
type Limiter struct {
	m        *Metrics
	capacity int64
	maxQueue int

	mu      sync.Mutex
	cur     int64
	waiters []*waiter // FIFO; index 0 is next to admit
}

type waiter struct {
	n     int64
	ready chan struct{}
}

// NewLimiter builds a limiter admitting at most capacity units of
// concurrent work, with at most maxQueue callers waiting beyond that.
func NewLimiter(capacity int64, maxQueue int, m *Metrics) *Limiter {
	if capacity <= 0 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Limiter{m: m, capacity: capacity, maxQueue: maxQueue}
}

// clampWeight bounds a request weight to [1, capacity] so one huge
// sweep can fill the server but never deadlock against it.
func (l *Limiter) clampWeight(n int64) int64 {
	if n < 1 {
		n = 1
	}
	if n > l.capacity {
		n = l.capacity
	}
	return n
}

// Acquire admits n units of work, blocking in FIFO order while the
// server is full. It returns ErrSaturated immediately when the wait
// queue is at its bound, or ctx.Err() if the context ends first.
// The fast path (capacity available, nobody queued) takes one mutex
// and allocates nothing.
func (l *Limiter) Acquire(ctx context.Context, n int64) error {
	n = l.clampWeight(n)
	l.mu.Lock()
	if l.cur+n <= l.capacity && len(l.waiters) == 0 {
		l.cur += n
		l.mu.Unlock()
		if l.m != nil {
			l.m.InFlight.Add(n)
		}
		return nil
	}
	if len(l.waiters) >= l.maxQueue {
		l.mu.Unlock()
		if l.m != nil {
			l.m.Shed.Inc()
		}
		return ErrSaturated
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	l.waiters = append(l.waiters, w)
	l.mu.Unlock()
	if l.m != nil {
		l.m.QueueDepth.Add(1)
		defer l.m.QueueDepth.Add(-1)
	}

	select {
	case <-w.ready:
		if l.m != nil {
			l.m.InFlight.Add(n)
		}
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		// Admission may have raced the cancellation; if our slot was
		// already granted, hand it back.
		granted := true
		for i, q := range l.waiters {
			if q == w {
				l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
				granted = false
				break
			}
		}
		if granted {
			l.cur -= w.n
		}
		// Re-run admission in both cases: we either returned capacity,
		// or removed a queued waiter — and if that waiter was a large
		// head-of-queue request, a smaller one behind it may now fit.
		l.admitLocked()
		l.mu.Unlock()
		if l.m != nil {
			l.m.Timeouts.Inc()
		}
		return ctx.Err()
	}
}

// Release returns n units of capacity and admits as many queued
// waiters as now fit, in FIFO order.
func (l *Limiter) Release(n int64) {
	n = l.clampWeight(n)
	l.mu.Lock()
	l.cur -= n
	if l.cur < 0 {
		l.cur = 0
	}
	l.admitLocked()
	l.mu.Unlock()
	if l.m != nil {
		l.m.InFlight.Add(-n)
	}
}

// admitLocked grants the longest-waiting callers whose weights fit.
// Strict FIFO: a large request at the head blocks smaller ones behind
// it, which is what keeps heavy sweeps from starving under a stream
// of cheap requests.
func (l *Limiter) admitLocked() {
	for len(l.waiters) > 0 {
		w := l.waiters[0]
		if l.cur+w.n > l.capacity {
			return
		}
		l.cur += w.n
		l.waiters = l.waiters[1:]
		close(w.ready)
	}
}

// InFlight returns the currently admitted weight (monitoring only).
func (l *Limiter) InFlight() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cur
}
