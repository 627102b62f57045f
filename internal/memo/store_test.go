package memo

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"testing"

	"vasppower/internal/obs"
)

// fakeStore is an in-memory Store with call accounting and a
// MarkCorrupt recorder, for exercising the Cache's tier logic without
// a filesystem.
type fakeStore struct {
	mu       sync.Mutex
	data     map[string][]byte
	gets     int
	puts     int
	corrupts []string
}

func newFakeStore() *fakeStore { return &fakeStore{data: make(map[string][]byte)} }

func (f *fakeStore) Get(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	d, ok := f.data[key]
	return d, ok
}

func (f *fakeStore) Put(key string, data []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	f.data[key] = append([]byte(nil), data...)
}

func (f *fakeStore) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.data)
}

func (f *fakeStore) MarkCorrupt(key string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.corrupts = append(f.corrupts, key)
	delete(f.data, key)
}

func intCodec() Codec[int] {
	return Codec[int]{
		Encode: func(v int) ([]byte, error) { return []byte(strconv.Itoa(v)), nil },
		Decode: func(b []byte) (int, error) { return strconv.Atoi(string(b)) },
	}
}

func noCompute(t *testing.T) func() (int, error) {
	return func() (int, error) {
		t.Helper()
		t.Error("compute ran when a cached tier should have served")
		return 0, nil
	}
}

// TestTierOrder pins the lookup path: memory → store → compute, with
// write-back on compute and promotion on store hits.
func TestTierOrder(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	c := New[int]()
	c.SetStore(st, intCodec())

	// Cold: both tiers miss, compute runs, value written back to store.
	v, err := c.Do(ctx, "k", func() (int, error) { return 41, nil })
	if v != 41 || err != nil {
		t.Fatalf("cold Do = %d, %v", v, err)
	}
	if st.gets != 1 || st.puts != 1 {
		t.Fatalf("cold gets/puts = %d/%d, want 1/1", st.gets, st.puts)
	}

	// Memory hit: the store is not consulted.
	if v, _ := c.Do(ctx, "k", noCompute(t)); v != 41 {
		t.Fatalf("memory-hit Do = %d", v)
	}
	if st.gets != 1 {
		t.Fatalf("memory hit consulted the store (gets = %d)", st.gets)
	}

	// Store hit: fresh memory tier, same store. Compute must not run,
	// and the hit is promoted so the next Do skips the store too.
	c2 := New[int]()
	c2.SetStore(st, intCodec())
	if v, err := c2.Do(ctx, "k", noCompute(t)); v != 41 || err != nil {
		t.Fatalf("store-hit Do = %d, %v", v, err)
	}
	gets := st.gets
	if v, _ := c2.Do(ctx, "k", noCompute(t)); v != 41 {
		t.Fatalf("promoted Do = %d", v)
	}
	if st.gets != gets {
		t.Fatal("store consulted again after promotion into memory")
	}
}

// TestComputeErrorNotWrittenBack: failed computations stay out of both
// tiers, preserving the retry semantics.
func TestComputeErrorNotWrittenBack(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	c := New[int]()
	c.SetStore(st, intCodec())
	boom := errors.New("boom")
	if _, err := c.Do(ctx, "k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if st.puts != 0 || st.Len() != 0 {
		t.Fatalf("failed computation written back (puts=%d len=%d)", st.puts, st.Len())
	}
	// The retry computes again and this time persists.
	if v, err := c.Do(ctx, "k", func() (int, error) { return 7, nil }); v != 7 || err != nil {
		t.Fatalf("retry Do = %d, %v", v, err)
	}
	if st.Len() != 1 {
		t.Fatal("successful retry not written back")
	}
}

// TestDecodeFailureQuarantinesAndRecomputes: bytes the codec cannot
// decode are reported to the store (MarkCorrupt) and treated as a miss
// — never surfaced as a value.
func TestDecodeFailureQuarantinesAndRecomputes(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	st.data["k"] = []byte("not-an-int")
	c := New[int]()
	c.SetStore(st, intCodec())
	v, err := c.Do(ctx, "k", func() (int, error) { return 5, nil })
	if v != 5 || err != nil {
		t.Fatalf("Do = %d, %v", v, err)
	}
	if len(st.corrupts) != 1 || st.corrupts[0] != "k" {
		t.Fatalf("MarkCorrupt calls = %v, want [k]", st.corrupts)
	}
	// The recomputed value replaced the corrupt bytes.
	if string(st.data["k"]) != "5" {
		t.Fatalf("store holds %q after recompute", st.data["k"])
	}
}

// TestResetSemantics: Reset clears memory only; StoreLen sees the
// store, Len the memory tier.
func TestResetSemantics(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	c := New[int]()
	c.SetStore(st, intCodec())
	c.Do(ctx, "k", func() (int, error) { return 1, nil })
	if c.Len() != 1 || c.StoreLen() != 1 {
		t.Fatalf("Len/StoreLen = %d/%d", c.Len(), c.StoreLen())
	}

	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("Len after Reset = %d", c.Len())
	}
	if c.StoreLen() != 1 {
		t.Fatal("Reset cleared the persistent tier")
	}
	// The store still serves the key — a warm start.
	if v, _ := c.Do(ctx, "k", noCompute(t)); v != 1 {
		t.Fatalf("warm Do = %d", v)
	}
}

// TestSetStoreNilDetaches: after detaching, lookups no longer consult
// or write the store, and StoreLen reports 0.
func TestSetStoreNilDetaches(t *testing.T) {
	ctx := context.Background()
	st := newFakeStore()
	st.data["k"] = []byte("9")
	c := New[int]()
	c.SetStore(st, intCodec())
	c.SetStore(nil, Codec[int]{})
	if c.StoreLen() != 0 {
		t.Fatalf("StoreLen after detach = %d", c.StoreLen())
	}
	v, _ := c.Do(ctx, "k", func() (int, error) { return 3, nil })
	if v != 3 {
		t.Fatalf("Do = %d, want computed 3 (store must be ignored)", v)
	}
	if st.gets != 0 || st.puts != 0 {
		t.Fatalf("detached store touched: gets=%d puts=%d", st.gets, st.puts)
	}
}

// TestMetricsWithStoreTier pins the manifest ledger with a store
// attached: a store hit is still a memory-tier miss, so
// hits+misses == lookups holds regardless of which tier served.
func TestMetricsWithStoreTier(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	st := newFakeStore()
	st.data["warm"] = []byte("2")
	c := New[int]()
	c.SetStore(st, intCodec())
	c.Instrument(NewMetrics(reg, "memo"))

	c.Do(ctx, "cold", func() (int, error) { return 1, nil }) // miss: computed
	c.Do(ctx, "warm", noCompute(t))                          // miss: store served
	c.Do(ctx, "cold", noCompute(t))                          // hit: memory
	c.Do(ctx, "warm", noCompute(t))                          // hit: memory (promoted)

	snap := reg.Snapshot().Counters
	if snap["memo.lookups"] != 4 || snap["memo.hits"] != 2 || snap["memo.misses"] != 2 {
		t.Fatalf("lookups/hits/misses = %d/%d/%d, want 4/2/2",
			snap["memo.lookups"], snap["memo.hits"], snap["memo.misses"])
	}
}

// StoreLen reports the number of entries in the attached fakeStore (0
// when no store is attached). The memory tier's count is Len.
func (c *Cache[V]) StoreLen() int {
	b := c.backing.Load()
	if b == nil {
		return 0
	}
	return b.store.(*fakeStore).Len()
}
