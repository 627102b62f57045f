package memo

// Store is a byte-level second cache tier behind a Cache: a persistent
// backing store consulted on memory misses. The Cache only reads it;
// writing computed values down is its owner's job, done when the owner
// chooses (experiments.Env writes behind the run). Implementations own
// their durability, integrity checking, and eviction policy (see
// memo/diskcache); from the Cache's side a Store is best-effort — a Get
// miss only costs a recomputation, never correctness.
//
// Implementations must be safe for concurrent use. Get returns the
// stored bytes for key, or ok=false when the key is absent (or the
// entry failed the implementation's integrity checks).
type Store interface {
	Get(key string) (data []byte, ok bool)
}

// CorruptMarker is an optional Store extension: when the Cache's codec
// fails to decode bytes the Store handed back (corruption the Store's
// own integrity checks could not see), the Cache reports the key so
// the Store can quarantine the entry and count it.
type CorruptMarker interface {
	MarkCorrupt(key string)
}

// Codec converts a Store's bytes to cached values. Decode must reject
// (with an error) bytes it cannot faithfully decode rather than
// returning a partial value.
type Codec[V any] struct {
	Decode func([]byte) (V, error)
}

// backing pairs a Store with the Codec that translates values for it;
// the Cache swaps the pair atomically so SetStore is safe mid-run.
type backing[V any] struct {
	store Store
	codec Codec[V]
}

// SetStore attaches a persistent second tier, read-through only: Flight
// lookups go memory → store → compute, and store hits are promoted into
// the memory tier. Computed values are not written to the store; its
// owner does that. Singleflight spans both tiers — concurrent misses on
// one key share a single store read (or computation). A nil store
// detaches the tier.
func (c *Cache[V]) SetStore(st Store, codec Codec[V]) {
	if st == nil {
		c.backing.Store(nil)
		return
	}
	c.backing.Store(&backing[V]{store: st, codec: codec})
}

// storeGet consults the backing store for key, decoding into a value.
// Decode failures are reported back to the store (quarantine) and
// treated as misses.
func (c *Cache[V]) storeGet(key string) (V, bool) {
	var zero V
	b := c.backing.Load()
	if b == nil {
		return zero, false
	}
	data, ok := b.store.Get(key)
	if !ok {
		return zero, false
	}
	v, err := b.codec.Decode(data)
	if err != nil {
		if m, ok := b.store.(CorruptMarker); ok {
			m.MarkCorrupt(key)
		}
		return zero, false
	}
	return v, true
}
