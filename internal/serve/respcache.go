package serve

import (
	"context"
	"sync"
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
//     completed response entry, with memo-style singleflight so
//     concurrent identical misses produce one evaluation and one
//     encoding;
//   - the alias index maps verbatim request-body bytes to the same
//     entries, so a repeated request is served without parsing its
//     body at all. Lookup is alloc-free: FNV over the body picks the
//     shard and Go's map[string] lookup on a []byte key compiles to a
//     no-copy access.
//
// Two bodies that differ only in JSON field order (or explicit-vs-
// default fields) get separate aliases but share one entry through the
// canonical index, so the expensive work still happens once.
//
// Entries are bounded per shard; overflowing a shard resets it (the
// tiers below refill a dropped entry in ~µs, so eviction precision is
// not worth per-hit bookkeeping on this path).
type respCache struct {
	m           *Metrics
	maxPerShard int
	shards      [respShardCount]respShard
}

// respShardCount bounds lock contention on the warm path; power of
// two well above any plausible core count.
const respShardCount = 64

type respShard struct {
	mu         sync.Mutex
	entries    map[string]*respEntry // canonical key → entry (may be in flight)
	aliases    map[string]*respEntry // verbatim body → completed entry
	aliasBytes int                   // total key bytes resident in aliases
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

// respEntry is one response's slot. done is closed exactly once after
// status/body/err are set; readers touch them only after observing the
// close. Completed successful entries are immutable thereafter — the
// byte slice is shared by every writer that serves it.
type respEntry struct {
	done   chan struct{}
	status int
	body   []byte
	err    error
}

func newRespCache(m *Metrics, maxEntries int) *respCache {
	c := &respCache{m: m, maxPerShard: maxEntries/respShardCount + 1}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*respEntry)
		c.shards[i].aliases = make(map[string]*respEntry)
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

func fnv32aString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// lookup returns the completed response aliased to the verbatim
// request body, or nil. This is the entire warm path: zero
// allocations, one shard lock.
func (c *respCache) lookup(body []byte) *respEntry {
	s := &c.shards[fnv32a(body)%respShardCount]
	s.mu.Lock()
	e := s.aliases[string(body)] // no-copy map access on []byte key
	s.mu.Unlock()
	return e
}

// alias registers body as a verbatim-bytes alias of a completed
// successful entry, so the next identical body skips parsing. The body
// is copied (the caller's buffer is pooled and will be reused).
func (c *respCache) alias(body []byte, e *respEntry) {
	if e == nil || e.err != nil || e.status != 200 || len(body) > maxAliasBody {
		return
	}
	s := &c.shards[fnv32a(body)%respShardCount]
	s.mu.Lock()
	if _, ok := s.aliases[string(body)]; ok { // no-copy probe
		s.mu.Unlock()
		return
	}
	if len(s.aliases) >= c.maxPerShard || s.aliasBytes+len(body) > maxAliasShardBytes {
		s.aliases = make(map[string]*respEntry)
		s.aliasBytes = 0
	}
	s.aliases[string(body)] = e // copies: aliases must own their keys
	s.aliasBytes += len(body)
	s.mu.Unlock()
}

// flight says how a do call obtained its entry.
type flight uint8

const (
	flightLed    flight = iota // this caller ran fill
	flightJoined               // waited on another caller's fill (coalesced)
	flightFound                // the entry was already complete (a hit)
)

// do returns the entry for canonKey, running fill at most once across
// concurrent callers: the first caller in computes (and its entry is
// cached only on success, like the memo tiers — errors are delivered
// to the flight's waiters, then retried by the next caller), later
// callers block on the in-flight entry and are reported joined, and a
// caller arriving after the flight completed is reported found.
// ctx bounds only the waiting of joined callers; the computing caller
// runs fill to completion so waiters always get a result.
func (c *respCache) do(ctx context.Context, canonKey string, fill func() (status int, body []byte, err error)) (e *respEntry, how flight, err error) {
	s := &c.shards[fnv32aString(canonKey)%respShardCount]
	s.mu.Lock()
	if e, ok := s.entries[canonKey]; ok {
		s.mu.Unlock()
		select {
		case <-e.done:
			return e, flightFound, e.err
		default:
		}
		select {
		case <-e.done:
			return e, flightJoined, e.err
		case <-ctx.Done():
			return nil, flightJoined, ctx.Err()
		}
	}
	e = &respEntry{done: make(chan struct{})}
	if len(s.entries) >= c.maxPerShard {
		s.entries = make(map[string]*respEntry)
	}
	s.entries[canonKey] = e
	s.mu.Unlock()

	e.status, e.body, e.err = fill()
	if e.err != nil || e.status != 200 {
		s.mu.Lock()
		// Only evict our own entry: a concurrent reset may have
		// replaced the map, or a later flight may occupy the slot.
		if cur, ok := s.entries[canonKey]; ok && cur == e {
			delete(s.entries, canonKey)
		}
		s.mu.Unlock()
	}
	close(e.done)
	return e, flightLed, e.err
}

// Len returns the number of completed-or-in-flight canonical entries
// plus registered aliases, across all shards (monitoring only).
func (c *respCache) Len() (entries, aliases int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += len(s.entries)
		aliases += len(s.aliases)
		s.mu.Unlock()
	}
	return entries, aliases
}
