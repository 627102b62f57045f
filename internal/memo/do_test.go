package memo

import "context"

// Do is Flight without the How, for tests that need only the value.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, error) {
	v, _, err := c.Flight(ctx, key, compute)
	return v, err
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
