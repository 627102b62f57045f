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

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.At(1, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
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

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(2.5)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(2.5) fired %v", fired)
	}
	if e.Now() != 2.5 {
		t.Fatalf("clock = %v, want 2.5", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("remaining events lost: %v", fired)
	}
}

func TestRunUntilAdvancesEmptyClock(t *testing.T) {
	e := New()
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("clock = %v, want 42", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := New()
	var ticks []float64
	tk := e.Every(2, func(now float64) {
		ticks = append(ticks, now)
	})
	e.At(11, func() { tk.Stop() })
	e.Run()
	want := []float64{2, 4, 6, 8, 10}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	e := New()
	count := 0
	var tk *Ticker
	tk = e.Every(1, func(now float64) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if count != 3 {
		t.Fatalf("ticker fired %d times after in-callback Stop, want 3", count)
	}
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

// TestHeapOrderWithTiesAndCancels checks the event heap against a
// sorted reference: many events on a few distinct times, scheduled in
// bursts between steps, some cancelled, must fire in (time, schedule
// order) — every tie FIFO — with every cancelled event skipped.
func TestHeapOrderWithTiesAndCancels(t *testing.T) {
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
			ev := e.At(k.at, func() { got = append(got, k) })
			if r.Bool(0.2) {
				ev.Cancel()
			} else {
				want = append(want, k)
			}
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

// TestEventRecycling pins the free-list pool: a fired (or cancelled
// and collected) event's storage is reused by a later schedule, reset
// fields and all, and the simulation stays correct through reuse.
func TestEventRecycling(t *testing.T) {
	e := New()
	first := e.At(1, func() {})
	e.Run()
	second := e.After(1, func() {})
	if first != second {
		t.Fatal("fired event was not recycled for the next schedule")
	}
	if second.cancelled || second.fired || second.fn == nil {
		t.Fatal("recycled event not fully reset")
	}
	fired := false
	second.fn = func() { fired = true }
	e.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}

	// Cancelled events are collected and recycled too.
	ev := e.After(1, func() { t.Error("cancelled event fired") })
	ev.Cancel()
	e.Run()
	if got := e.After(1, func() {}); got != ev {
		t.Fatal("cancelled event was not recycled after collection")
	}
	e.Run()
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

// TestTickerStopAfterRecycle: stopping a ticker twice, or after its
// pending event has fired and been recycled into an unrelated
// schedule, must not cancel the unrelated event.
func TestTickerStopAfterRecycle(t *testing.T) {
	e := New()
	tk := e.Every(1, func(float64) {})
	e.RunUntil(1.5) // one tick fired; tk re-armed for t=2
	tk.Stop()
	tk.Stop() // second Stop must be a no-op, not a stale Cancel
	fired := false
	e.At(2, func() { fired = true }) // may reuse the cancelled event's slot
	e.Run()
	if !fired {
		t.Fatal("event scheduled after ticker Stop was cancelled by a stale handle")
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

// BenchmarkTickerTicks measures a long-running sampler: one ticker,
// many ticks (the LDMS pipeline's shape).
func BenchmarkTickerTicks(b *testing.B) {
	e := New()
	tk := e.Every(1, func(float64) {})
	defer tk.Stop()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func TestPending(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("Pending after run = %d", e.Pending())
	}
}
