package memo

import "context"

// Do is Flight without the How, for tests that need only the value.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, error) {
	v, _, err := c.Flight(ctx, key, compute)
	return v, err
}
