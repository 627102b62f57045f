// Package memo provides a sharded, singleflight-deduplicated
// memoization cache. It replaces the single-mutex measurement map the
// experiment runners used to share: under the parallel measurement
// engine many goroutines miss on the same key at once, and without
// deduplication each of them would redo the same (expensive)
// simulation — or serialize on one global lock while doing so.
//
// Keys are strings; values are computed at most once per key while the
// computation's result remains cached. Shards keep unrelated keys from
// contending on one mutex; the per-key in-flight entry makes
// concurrent misses on the *same* key compute once, with every waiter
// receiving the single result.
package memo

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vasppower/internal/obs"
)

// shardCount bounds lock contention. Power of two, sized well above
// any plausible worker count.
const shardCount = 32

// Metrics is the cache's observability hook. Every Do call counts one
// Lookup and exactly one of Hits or Misses (so hits+misses == lookups
// always holds); Dedups counts the subset of hits that arrived while
// the flight was still computing, and WaitMS records how long those
// deduplicated callers blocked. A nil *Metrics (the default) costs one
// atomic pointer load per Do.
type Metrics struct {
	Lookups *obs.Counter
	Hits    *obs.Counter
	Misses  *obs.Counter
	Dedups  *obs.Counter
	WaitMS  *obs.Histogram
}

// waitBucketsMS bounds the dedup wait-time histogram: computations
// range from sub-millisecond trimmed runs to multi-second sweeps.
var waitBucketsMS = []float64{0.1, 1, 10, 100, 1000, 10000}

// NewMetrics registers the cache metric set under prefix (e.g. "memo")
// in reg. A nil registry yields a usable all-no-op Metrics.
func NewMetrics(reg *obs.Registry, prefix string) *Metrics {
	return &Metrics{
		Lookups: reg.Counter(prefix + ".lookups"),
		Hits:    reg.Counter(prefix + ".hits"),
		Misses:  reg.Counter(prefix + ".misses"),
		Dedups:  reg.Counter(prefix + ".dedups"),
		WaitMS:  reg.Histogram(prefix+".wait_ms", waitBucketsMS),
	}
}

// Cache is a sharded singleflight memoization cache, optionally backed
// by a persistent second tier (SetStore): lookups go memory → store →
// compute, with computed values written back down. The zero value is
// not usable; call New or NewBounded.
type Cache[V any] struct {
	shards      [shardCount]shard[V]
	maxPerShard int // 0 = unbounded
	metrics     atomic.Pointer[Metrics]
	backing     atomic.Pointer[backing[V]]
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
}

// entry is one key's slot. done is closed exactly once, after val/err
// are set; waiters read them only after observing the close.
type entry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns an empty, unbounded cache.
func New[V any]() *Cache[V] {
	c := &Cache[V]{}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*entry[V])
	}
	return c
}

// NewBounded returns an empty cache holding about maxEntries keys:
// a shard already holding maxEntries/shardCount+1 keys is reset before
// it takes another, dropping only its own keys. Eviction is that coarse on
// purpose — no per-hit bookkeeping on the hit path — so bound only
// caches whose entries are cheap to refill.
func NewBounded[V any](maxEntries int) *Cache[V] {
	c := New[V]()
	c.maxPerShard = maxEntries/shardCount + 1
	return c
}

// Instrument attaches (or, with nil, detaches) metrics. Counting
// starts with the next Do; in-flight calls keep the recorder they
// loaded at entry.
func (c *Cache[V]) Instrument(m *Metrics) { c.metrics.Store(m) }

// shard picks key's shard by FNV-1a, inlined so the lookup never
// touches hash.Hash or converts the key to a byte slice.
func (c *Cache[V]) shard(key string) *shard[V] {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%shardCount]
}

// How says how a Flight call obtained its value.
type How uint8

const (
	Led    How = iota // this caller claimed the key: it read the store or ran compute
	Joined            // waited on another caller's in-flight computation
	Found             // the value was already complete
)

// count scores one lookup: Led is a miss; Joined and Found are hits,
// and Joined is also a dedup.
func (m *Metrics) count(how How) {
	if m == nil {
		return
	}
	m.Lookups.Add(1)
	if how == Led {
		m.Misses.Add(1)
		return
	}
	m.Hits.Add(1)
	if how == Joined {
		m.Dedups.Add(1)
	}
}

// Do returns the cached value for key, computing it with compute on
// the first call. Concurrent calls for the same key share one
// computation: exactly one caller runs compute, the rest block until
// it finishes (or their context is canceled) and receive the same
// result. Failed computations are not cached — the error is delivered
// to every caller of that flight, and the next call retries — matching
// the retry semantics of the serial cache this replaces.
//
// With a backing store attached (SetStore), a memory miss first
// consults the store; a store hit skips compute entirely and is
// promoted into the memory tier, and a computed value is written back
// to the store. Singleflight covers both tiers: the per-key flight is
// claimed before the store is consulted, so concurrent misses share
// one store read or one computation, never both.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, error) {
	v, _, err := c.Flight(ctx, key, compute)
	return v, err
}

// Flight is Do that also reports how the value was obtained: Led by
// the caller that claimed the key, Joined by callers that waited on
// its computation, Found by callers arriving after it completed. ctx
// bounds only a Joined caller's wait; the leader runs compute to
// completion so waiters always get a result.
func (c *Cache[V]) Flight(ctx context.Context, key string, compute func() (V, error)) (V, How, error) {
	m := c.metrics.Load()
	s := c.shard(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		select {
		case <-e.done: // completed entry: no wait
			m.count(Found)
			return e.val, Found, e.err
		default:
		}
		m.count(Joined)
		if m != nil {
			start := time.Now()
			defer func() { m.WaitMS.Observe(float64(time.Since(start)) / 1e6) }()
		}
		select {
		case <-e.done:
			return e.val, Joined, e.err
		case <-ctx.Done():
			var zero V
			return zero, Joined, ctx.Err()
		}
	}
	e := &entry[V]{done: make(chan struct{})}
	if c.maxPerShard > 0 && len(s.entries) >= c.maxPerShard {
		s.entries = make(map[string]*entry[V])
	}
	s.entries[key] = e
	s.mu.Unlock()
	m.count(Led)

	if v, ok := c.storeGet(key); ok {
		e.val = v
	} else {
		e.val, e.err = compute()
		if e.err == nil {
			c.storePut(key, e.val)
		}
	}
	if e.err != nil {
		s.mu.Lock()
		// Only evict our own entry: a concurrent Reset may have already
		// replaced the map (or a later flight may occupy the slot).
		if cur, ok := s.entries[key]; ok && cur == e {
			delete(s.entries, key)
		}
		s.mu.Unlock()
	}
	close(e.done)
	return e.val, Led, e.err
}

// Get returns the cached value for key without computing, and whether
// a completed value was present.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	e, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return *new(V), false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return *new(V), false
		}
		return e.val, true
	default: // still computing
		return *new(V), false
	}
}

// Len returns the number of cached (or in-flight) keys in the memory
// tier only, not counting a backing store's entries. The two are
// deliberately not summed — keys present in both tiers would be
// double-counted, and the memory tier is the one that bounds live heap.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Reset drops every cached entry in the memory tier only — a backing
// store keeps its entries, so the next Do on a previously computed key
// is a store hit, not a recomputation. In-flight computations complete and deliver their result to
// waiters but are not re-cached in memory (their store write-back
// still lands).
func (c *Cache[V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*entry[V])
		s.mu.Unlock()
	}
}
