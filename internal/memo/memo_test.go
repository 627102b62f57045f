package memo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOnceAndCaches(t *testing.T) {
	c := New[int]()
	calls := 0
	for i := 0; i < 3; i++ {
		v, err := c.Do(context.Background(), "k", func() (int, error) {
			calls++
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Fatalf("Do = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	if v, ok := c.Get("k"); !ok || v != 7 {
		t.Fatalf("Get = %d, %v", v, ok)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("Get hit on an absent key")
	}
}

func TestDoDistinctKeysDistinctValues(t *testing.T) {
	c := New[string]()
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%d", i)
		v, err := c.Do(context.Background(), key, func() (string, error) {
			return key + "!", nil
		})
		if err != nil || v != key+"!" {
			t.Fatalf("Do(%s) = %q, %v", key, v, err)
		}
	}
	if c.Len() != 100 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[int]()
	boom := errors.New("boom")
	calls := 0
	_, err := c.Do(context.Background(), "k", func() (int, error) {
		calls++
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed computation was cached")
	}
	v, err := c.Do(context.Background(), "k", func() (int, error) {
		calls++
		return 9, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times", calls)
	}
}

// TestDoSingleflight verifies concurrent misses on one key share a
// single computation: the compute function blocks until every waiter
// has joined the flight, proving they all waited on it.
func TestDoSingleflight(t *testing.T) {
	c := New[int]()
	const waiters = 16
	var (
		calls   atomic.Int32
		joined  sync.WaitGroup
		release = make(chan struct{})
	)
	joined.Add(waiters)
	go func() {
		joined.Wait()
		close(release)
	}()
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			joined.Done()
			v, err := c.Do(context.Background(), "shared", func() (int, error) {
				calls.Add(1)
				<-release // hold the flight open until all goroutines are in Do
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key", n)
	}
}

func TestDoWaiterHonorsContext(t *testing.T) {
	c := New[int]()
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), "k", func() (int, error) {
			close(entered)
			<-release
			return 1, nil
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Do(ctx, "k", func() (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v", err)
	}
	close(release)
}

// TestCacheStress hammers the cache from many goroutines with
// overlapping keys, mixed successes and failures, and concurrent
// Resets. Run under -race this is the cache's thread-safety proof.
//
// It asserts Do's contract exactly. A successful compute can join a
// concurrent failing flight for the same key, and that flight's error
// goes to every caller, so during the stress a success call returns
// either its value or the transient error, never a wrong value or any
// other error. Once the stress ends, every key must compute afresh:
// no failure may have poisoned it.
func TestCacheStress(t *testing.T) {
	c := New[int]()
	errTransient := errors.New("transient")
	const keys = 17
	var wg sync.WaitGroup
	const goroutines = 32
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("key-%d", i%keys)
				want := (i % keys) * 3
				if i%50 == 49 {
					c.Reset()
					continue
				}
				if i%13 == 12 {
					c.Do(context.Background(), key, func() (int, error) {
						return 0, errTransient
					})
					continue
				}
				v, err := c.Do(context.Background(), key, func() (int, error) {
					return want, nil
				})
				if !(err == nil && v == want) && !errors.Is(err, errTransient) {
					t.Errorf("g%d i%d: Do(%s) = %d, %v (want %d or the transient error)", g, i, key, v, err, want)
					return
				}
				c.Get(key)
				c.Len()
			}
		}(g)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		key, want := fmt.Sprintf("key-%d", k), k*3
		v, err := c.Do(context.Background(), key, func() (int, error) { return want, nil })
		if err != nil || v != want {
			t.Errorf("after the stress: Do(%s) = %d, %v (want %d): a failed flight poisoned the key", key, v, err, want)
		}
	}
}
