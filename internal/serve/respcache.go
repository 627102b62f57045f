package serve

import (
	"sync"

	"vasppower/internal/memo"
)

// respCache is the serving layer's third cache tier: canonical,
// pre-serialized JSON response bytes, keyed two ways.
//
// The memo tiers below it make a warm MeasureSpec ~µs, but a naive
// handler still pays JSON decode + evaluate-key + JSON encode on every
// request. This cache removes all three from the warm path:
//
//   - the canonical index maps a semantic key (experiments.SpecKey for
//     measures; analogous strings for sweeps and schedules) to one
//     response, through a bounded memo.Cache — the same singleflight
//     the measurement tiers use, so concurrent identical misses produce
//     one evaluation and one encoding;
//   - the alias index maps verbatim request-body bytes to the same
//     responses, so a repeated request is served without parsing its
//     body at all. Lookup is alloc-free: FNV over the body picks the
//     shard and Go's map[string] lookup on a []byte key compiles to a
//     no-copy access.
//
// Two bodies that differ only in JSON field order (or explicit-vs-
// default fields) get separate aliases but share one response through
// the canonical index, so the expensive work still happens once.
//
// Both indexes are bounded per shard; overflowing a shard resets it
// (the tiers below refill a dropped entry in ~µs, so eviction
// precision is not worth per-hit bookkeeping on this path).
type respCache struct {
	entries     *memo.Cache[[]byte]
	maxPerShard int
	shards      [respShardCount]respShard
}

// respShardCount bounds lock contention on the warm path; power of
// two well above any plausible core count.
const respShardCount = 64

// respShard is one shard of the alias index. Its values are completed
// 200 responses, immutable once cached: the byte slice is shared by
// every writer that serves it.
type respShard struct {
	mu         sync.Mutex
	aliases    map[string][]byte // verbatim body → response bytes
	aliasBytes int               // total key bytes resident in aliases
}

// Alias keys copy verbatim request bodies, and whitespace/field-order
// variants of one valid spec give a client unlimited distinct bodies
// that all alias successfully — so aliases must be bounded in bytes,
// not just count. Bodies over maxAliasBody (far above any legitimate
// request; those still hit the canonical index after a parse) are not
// aliased at all, and a shard resets once its resident key bytes reach
// maxAliasShardBytes (≈ 64 MiB across 64 shards).
const (
	maxAliasBody       = 4 << 10
	maxAliasShardBytes = 1 << 20
)

// newRespCache bounds each index at about maxEntries. The Server
// scores cache outcomes in its own Metrics, so the cache takes none.
func newRespCache(_ *Metrics, maxEntries int) *respCache {
	c := &respCache{entries: memo.NewBounded[[]byte](maxEntries), maxPerShard: maxEntries/respShardCount + 1}
	for i := range c.shards {
		c.shards[i].aliases = make(map[string][]byte)
	}
	return c
}

// fnv32a is FNV-1a over a byte slice, inlined so the hot path never
// touches hash.Hash (whose constructor escapes to the heap).
func fnv32a(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// lookup returns the response aliased to the verbatim request body,
// or nil. This is the entire warm path: zero allocations, one shard
// lock.
func (c *respCache) lookup(body []byte) []byte {
	s := &c.shards[fnv32a(body)%respShardCount]
	s.mu.Lock()
	resp := s.aliases[string(body)] // no-copy map access on []byte key
	s.mu.Unlock()
	return resp
}

// alias registers body as a verbatim-bytes alias of a cached response,
// so the next identical body skips parsing. The body is copied (the
// caller's buffer is pooled and will be reused).
func (c *respCache) alias(body, resp []byte) {
	if resp == nil || len(body) > maxAliasBody {
		return
	}
	s := &c.shards[fnv32a(body)%respShardCount]
	s.mu.Lock()
	if _, ok := s.aliases[string(body)]; ok { // no-copy probe
		s.mu.Unlock()
		return
	}
	if len(s.aliases) >= c.maxPerShard || s.aliasBytes+len(body) > maxAliasShardBytes {
		s.aliases = make(map[string][]byte)
		s.aliasBytes = 0
	}
	s.aliases[string(body)] = resp // copies: aliases must own their keys
	s.aliasBytes += len(body)
	s.mu.Unlock()
}

// Len returns the number of completed-or-in-flight canonical entries
// and of registered aliases (monitoring only).
func (c *respCache) Len() (entries, aliases int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		aliases += len(s.aliases)
		s.mu.Unlock()
	}
	return c.entries.Len(), aliases
}
