package par

import (
	"context"
	"errors"
	"testing"

	"vasppower/internal/obs"
)

// TestForEachPreCancelledReturnsError pins the contract the manifest
// relies on: a context that is cancelled before any item starts must
// surface ctx.Err() — for every worker count and item count — and
// report all n items as skipped.
func TestForEachPreCancelledReturnsError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		m := NewMetrics(obs.NewRegistry())
		SetMetrics(m)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		err := ForEach(ctx, workers, 5, func(context.Context, int) error {
			ran = true
			return nil
		})
		SetMetrics(nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran {
			t.Fatalf("workers=%d: item ran under a pre-cancelled context", workers)
		}
		if got := m.ItemsSkipped.Value(); got != 5 {
			t.Fatalf("workers=%d: skipped = %d, want 5", workers, got)
		}
		if m.ItemsStarted.Value() != 0 {
			t.Fatalf("workers=%d: started = %d, want 0", workers, m.ItemsStarted.Value())
		}
	}
}

func TestForEachMetricsFullRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := NewMetrics(obs.NewRegistry())
		SetMetrics(m)
		const n = 20
		err := ForEach(context.Background(), workers, n, func(context.Context, int) error { return nil })
		SetMetrics(nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.ItemsStarted.Value() != n || m.ItemsCompleted.Value() != n {
			t.Fatalf("workers=%d: started=%d completed=%d, want %d/%d",
				workers, m.ItemsStarted.Value(), m.ItemsCompleted.Value(), n, n)
		}
		if m.ItemsSkipped.Value() != 0 {
			t.Fatalf("workers=%d: skipped = %d, want 0", workers, m.ItemsSkipped.Value())
		}
		if m.QueueDepth.Value() != 0 {
			t.Fatalf("workers=%d: queue depth = %d after drain, want 0", workers, m.QueueDepth.Value())
		}
		if m.ItemMS.Count() != n {
			t.Fatalf("workers=%d: item histogram count = %d, want %d", workers, m.ItemMS.Count(), n)
		}
	}
}

// TestForEachMetricsSkippedOnError checks the error path's ledger:
// started + skipped == n, queue depth drains to zero, and the failing
// item still counts as started and completed. With several workers,
// every other item waits for the cancellation before it returns, so
// no worker can drain the queue ahead of the failure: only the items
// in flight when it lands start.
func TestForEachMetricsSkippedOnError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		m := NewMetrics(obs.NewRegistry())
		SetMetrics(m)
		const n = 50
		err := ForEach(context.Background(), workers, n, func(ctx context.Context, i int) error {
			if i == 3 {
				return boom
			}
			if workers > 1 {
				<-ctx.Done()
			}
			return nil
		})
		SetMetrics(nil)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		started, skipped := m.ItemsStarted.Value(), m.ItemsSkipped.Value()
		if started+skipped != n {
			t.Fatalf("workers=%d: started(%d) + skipped(%d) != %d", workers, started, skipped, n)
		}
		if skipped == 0 {
			t.Fatalf("workers=%d: no items reported skipped after early error", workers)
		}
		if workers > 1 && skipped < int64(n-workers) {
			t.Fatalf("workers=%d: skipped = %d, want >= %d", workers, skipped, n-workers)
		}
		if m.ItemsCompleted.Value() != started {
			t.Fatalf("workers=%d: completed(%d) != started(%d)",
				workers, m.ItemsCompleted.Value(), started)
		}
		if m.QueueDepth.Value() != 0 {
			t.Fatalf("workers=%d: queue depth = %d after drain, want 0", workers, m.QueueDepth.Value())
		}
	}
}

// TestForEachUninstrumented guards the default path: no metrics
// installed, everything still works.
func TestForEachUninstrumented(t *testing.T) {
	sum := 0
	err := ForEach(context.Background(), 1, 10, func(_ context.Context, i int) error {
		sum += i
		return nil
	})
	if err != nil || sum != 45 {
		t.Fatalf("sum = %d err = %v", sum, err)
	}
}
