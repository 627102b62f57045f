package memo

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"vasppower/internal/obs"
)

// TestMetricsSingleflightDedup pins the singleflight accounting: N
// goroutines racing a cold key produce exactly 1 compute (a miss) and
// N-1 dedups, and every call is a lookup. The compute blocks until the
// dedup counter itself reports that all other callers have arrived, so
// the dedup path is exercised deterministically, not probabilistically.
func TestMetricsSingleflightDedup(t *testing.T) {
	const n = 16
	c := New[int]()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c.Instrument(m)

	computes := 0
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do(context.Background(), "k", func() (int, error) {
				computes++ // race detector proves single execution
				deadline := time.Now().Add(5 * time.Second)
				for m.Dedups.Value() < n-1 {
					if time.Now().After(deadline) {
						break // let the test's assertions report the shortfall
					}
					time.Sleep(50 * time.Microsecond)
				}
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()

	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	if got := m.Lookups.Value(); got != n {
		t.Fatalf("lookups = %d, want %d", got, n)
	}
	if got := m.Dedups.Value(); got != n-1 {
		t.Fatalf("dedups = %d, want %d", got, n-1)
	}
	if m.Misses.Value() != 1 || m.Hits.Value() != n-1 {
		t.Fatalf("misses = %d, hits = %d, want 1 and %d", m.Misses.Value(), m.Hits.Value(), n-1)
	}
	if m.WaitMS.Count() != n-1 {
		t.Fatalf("wait_ms observations = %d, want %d", m.WaitMS.Count(), n-1)
	}

	// Warm key: all hits, no dedups.
	for i := 0; i < 3; i++ {
		if _, err := c.Do(context.Background(), "k", func() (int, error) {
			t.Error("recompute of cached key")
			return 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Hits.Value() != n-1+3 || m.Dedups.Value() != n-1 {
		t.Fatalf("warm hits = %d, dedups = %d", m.Hits.Value(), m.Dedups.Value())
	}
}

// TestMetricsInvariantUnderStress hammers many goroutines over a small
// key space (maximizing hit/miss/dedup interleavings) and asserts the
// ledger balances: hits + misses == lookups == number of Do calls.
func TestMetricsInvariantUnderStress(t *testing.T) {
	c := New[string]()
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	c.Instrument(m)

	const workers, perWorker, keys = 8, 200, 13
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("key%d", (w*perWorker+i)%keys)
				v, err := c.Do(context.Background(), key, func() (string, error) {
					return "v:" + key, nil
				})
				if err != nil || v != "v:"+key {
					t.Errorf("Do(%s) = %q, %v", key, v, err)
				}
			}
		}(w)
	}
	wg.Wait()

	total := int64(workers * perWorker)
	if m.Lookups.Value() != total {
		t.Fatalf("lookups = %d, want %d", m.Lookups.Value(), total)
	}
	if m.Hits.Value()+m.Misses.Value() != m.Lookups.Value() {
		t.Fatalf("hits(%d) + misses(%d) != lookups(%d)",
			m.Hits.Value(), m.Misses.Value(), m.Lookups.Value())
	}
	if m.Misses.Value() < keys {
		t.Fatalf("misses = %d, want >= %d (every key computes at least once)", m.Misses.Value(), keys)
	}
	if m.Dedups.Value() > m.Hits.Value() {
		t.Fatalf("dedups(%d) exceed hits(%d)", m.Dedups.Value(), m.Hits.Value())
	}
}

// TestUninstrumentedCacheCountsNothing guards the default: a cache
// that was never instrumented must work and record nothing.
func TestUninstrumentedCacheCountsNothing(t *testing.T) {
	c := New[int]()
	if _, err := c.Do(context.Background(), "k", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(context.Background(), "k", func() (int, error) { return 2, nil }); err != nil {
		t.Fatal(err)
	}
	c.Instrument(NewMetrics(nil)) // nil registry: all-no-op metrics
	if _, err := c.Do(context.Background(), "k", func() (int, error) { return 3, nil }); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDoHit is the cache-hit hot path the observability layer
// must not slow down: compare against BenchmarkDoHitInstrumented.
func BenchmarkDoHit(b *testing.B) {
	c := New[int]()
	c.Do(context.Background(), "k", func() (int, error) { return 1, nil })
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do(ctx, "k", func() (int, error) { return 0, nil })
	}
}

func BenchmarkDoHitInstrumented(b *testing.B) {
	c := New[int]()
	c.Instrument(NewMetrics(obs.NewRegistry()))
	c.Do(context.Background(), "k", func() (int, error) { return 1, nil })
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Do(ctx, "k", func() (int, error) { return 0, nil })
	}
}
