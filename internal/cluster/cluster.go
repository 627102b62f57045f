// Package cluster models a pool of GPU nodes of one platform with
// per-node manufacturing variability and a simple allocator. Node
// identity (the "nid######" name) deterministically seeds each node's
// variability, so any experiment that lands on the same nodes sees the
// same hardware — which is what lets the paper's DGEMM/STREAM burn-in
// protocol detect underperforming nodes.
package cluster

import (
	"fmt"
	"sort"

	"vasppower/internal/hw/node"
	"vasppower/internal/hw/platform"
	"vasppower/internal/interconnect"
	"vasppower/internal/rng"
)

// Cluster is a pool of GPU nodes plus the fabric connecting them.
type Cluster struct {
	Fabric interconnect.Fabric

	nodes map[string]*node.Node
	free  map[string]bool
	names []string // sorted, for deterministic allocation order
}

// New builds a cluster of n GPU nodes of platform p seeded from seed.
// A zero p resolves to the default platform.
func New(p platform.Platform, n int, seed uint64) *Cluster {
	if n <= 0 {
		panic("cluster: non-positive node count")
	}
	p = platform.OrDefault(p)
	root := rng.New(seed)
	c := &Cluster{
		Fabric: interconnect.Slingshot(),
		nodes:  make(map[string]*node.Node, n),
		free:   make(map[string]bool, n),
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("nid%06d", i+1)
		c.nodes[name] = node.New(name, p, root.Split(name))
		c.free[name] = true
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	return c
}

// Size returns the total node count.
func (c *Cluster) Size() int { return len(c.nodes) }

// Allocate reserves k free nodes (lowest names first, like a packed
// scheduler) and returns them. It returns an error when fewer than k
// nodes are free.
func (c *Cluster) Allocate(k int) ([]*node.Node, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: invalid allocation size %d", k)
	}
	var picked []*node.Node
	for _, name := range c.names {
		if c.free[name] {
			picked = append(picked, c.nodes[name])
			if len(picked) == k {
				break
			}
		}
	}
	if len(picked) < k {
		return nil, fmt.Errorf("cluster: %d nodes requested, %d free", k, len(picked))
	}
	for _, n := range picked {
		c.free[n.Name] = false
	}
	return picked, nil
}

// Release returns nodes to the free pool, resetting their traces and
// power limits (as the batch epilog would).
func (c *Cluster) Release(nodes []*node.Node) {
	for _, n := range nodes {
		if _, ok := c.nodes[n.Name]; !ok {
			panic(fmt.Sprintf("cluster: releasing foreign node %q", n.Name))
		}
		n.ResetTraces()
		n.ResetGPUPowerLimits()
		c.free[n.Name] = true
	}
}
