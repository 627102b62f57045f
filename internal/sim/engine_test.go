package sim

import (
	"reflect"
	"sort"
	"testing"

	"vasppower/internal/rng"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var order []float64
	for _, at := range []float64{5, 1, 3, 2, 4} {
		at := at
		e.At(at, func() { order = append(order, at) })
	}
	e.Run()
	if !sort.Float64sAreSorted(order) {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 5 {
		t.Fatalf("final time = %v, want 5", e.Now())
	}
}

func TestTiesFireFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order not FIFO: %v", order)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New()
	var firedAt float64
	e.At(10, func() {
		e.After(5, func() { firedAt = e.Now() })
	})
	e.Run()
	if firedAt != 15 {
		t.Fatalf("After fired at %v, want 15", firedAt)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := New()
	e.At(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestNestedScheduling(t *testing.T) {
	// A chain of events each scheduling the next: simulates a process.
	e := New()
	depth := 0
	var step func()
	step = func() {
		depth++
		if depth < 100 {
			e.After(1, step)
		}
	}
	e.After(1, step)
	e.Run()
	if depth != 100 {
		t.Fatalf("chain depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("final time = %v, want 100", e.Now())
	}
}

// Property: with random schedules, events always fire in nondecreasing
// time order and the clock never moves backwards.
func TestRandomScheduleOrderProperty(t *testing.T) {
	root := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		r := rng.New(root.Uint64())
		e := New()
		var last float64 = -1
		violations := 0
		n := 1 + r.IntN(200)
		for i := 0; i < n; i++ {
			at := r.Float64() * 1000
			e.At(at, func() {
				if e.Now() < last {
					violations++
				}
				last = e.Now()
				// Sometimes schedule follow-ups.
				if r.Bool(0.3) {
					e.After(r.Float64()*10, func() {
						if e.Now() < last {
							violations++
						}
						last = e.Now()
					})
				}
			})
		}
		e.Run()
		if violations > 0 {
			t.Fatalf("trial %d: %d time-order violations", trial, violations)
		}
	}
}

// TestHeapOrderWithTies checks the event heap against a sorted
// reference: many events on a few distinct times, scheduled in bursts
// between steps, must fire in (time, schedule order) — every tie FIFO.
func TestHeapOrderWithTies(t *testing.T) {
	r := rng.New(5)
	e := New()
	type key struct {
		at  float64
		seq int
	}
	var want, got []key
	seq := 0
	for burst := 0; burst < 40; burst++ {
		for i := 0; i < 1+r.IntN(60); i++ {
			k := key{e.Now() + float64(r.IntN(8)), seq}
			seq++
			e.At(k.at, func() { got = append(got, k) })
			want = append(want, k)
		}
		for i := r.IntN(40); i > 0 && e.Step(); i-- {
		}
	}
	e.Run()
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %d events out of (time, sequence) order; want %d", len(got), len(want))
	}
}

// TestEventRecycling pins the free-list pool: a fired event's storage
// is reused by a later schedule, reset fields and all, and the
// simulation stays correct through reuse.
func TestEventRecycling(t *testing.T) {
	e := New()
	e.AtArg(1, func(int) {}, 7)
	e.Run()
	if len(e.free) != 1 {
		t.Fatalf("free list holds %d events after one fired, want 1", len(e.free))
	}
	first := e.free[0]
	fired := false
	e.After(1, func() { fired = true })
	second := e.pq[0].ev
	if first != second {
		t.Fatal("fired event was not recycled for the next schedule")
	}
	if second.fnArg != nil || second.arg != 0 || second.fn == nil {
		t.Fatal("recycled event not fully reset")
	}
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

// TestRecycledEventsDropClosures: pooled events must not pin their
// callbacks (which capture node sensors) while idle on the free list.
func TestRecycledEventsDropClosures(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.Run()
	if len(e.free) != 1 || e.free[0].fn != nil {
		t.Fatalf("free list holds a closure (len %d)", len(e.free))
	}
}

// BenchmarkScheduleFire measures the steady-state schedule→fire cycle;
// with the free-list pool this allocates nothing per event.
func BenchmarkScheduleFire(b *testing.B) {
	e := New()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(1, fn)
		e.Step()
	}
}

// After schedules fn delay seconds from now.
func (e *Engine) After(delay float64, fn func()) { e.At(e.now+delay, fn) }

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}
