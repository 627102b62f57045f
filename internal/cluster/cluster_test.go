package cluster

import (
	"testing"

	"vasppower/internal/hw/platform"
)

// freeCount returns the number of unallocated nodes.
func freeCount(c *Cluster) int {
	n := 0
	for _, f := range c.free {
		if f {
			n++
		}
	}
	return n
}

func TestAllocateAndRelease(t *testing.T) {
	c := New(platform.Platform{}, 8, 1)
	if len(c.nodes) != 8 || freeCount(c) != 8 {
		t.Fatalf("size/free = %d/%d", len(c.nodes), freeCount(c))
	}
	nodes, err := c.Allocate(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 || freeCount(c) != 4 {
		t.Fatalf("allocation wrong: %d nodes, %d free", len(nodes), freeCount(c))
	}
	// Deterministic packed order.
	if nodes[0].Name != "nid000001" || nodes[3].Name != "nid000004" {
		t.Fatalf("allocation order wrong: %s..%s", nodes[0].Name, nodes[3].Name)
	}
	c.Release(nodes)
	if freeCount(c) != 8 {
		t.Fatal("release did not free nodes")
	}
}

func TestAllocateTooMany(t *testing.T) {
	c := New(platform.Platform{}, 2, 1)
	if _, err := c.Allocate(3); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if freeCount(c) != 2 {
		t.Fatal("failed allocation leaked reservations")
	}
	if _, err := c.Allocate(0); err == nil {
		t.Fatal("zero allocation accepted")
	}
}

func TestReleaseResetsState(t *testing.T) {
	c := New(platform.Platform{}, 2, 1)
	nodes, _ := c.Allocate(1)
	n := nodes[0]
	n.RecordIdle(10)
	_ = n.SetGPUPowerLimits(200)
	c.Release(nodes)
	if n.TraceDuration() != 0 {
		t.Fatal("release did not clear traces")
	}
	if n.GPUs[0].PowerLimit() != 400 {
		t.Fatal("release did not reset power limits")
	}
}

func TestNodeVariabilityStableAcrossClusters(t *testing.T) {
	a := New(platform.Platform{}, 4, 42)
	b := New(platform.Platform{}, 4, 42)
	for _, name := range a.names {
		if a.nodes[name].IdlePower() != b.nodes[name].IdlePower() {
			t.Fatalf("node %s differs across identically-seeded clusters", name)
		}
	}
	// Different nodes differ from each other.
	if a.nodes["nid000001"].IdlePower() == a.nodes["nid000002"].IdlePower() {
		t.Fatal("distinct nodes have identical idle power (no variability)")
	}
}

func TestReleaseForeignNodePanics(t *testing.T) {
	a := New(platform.Platform{}, 2, 1)
	b := New(platform.Platform{}, 2, 2)
	nodes, _ := b.Allocate(1)
	// Rename so it's not found in a.
	nodes[0].Name = "rogue"
	defer func() {
		if recover() == nil {
			t.Fatal("releasing a foreign node did not panic")
		}
	}()
	a.Release(nodes)
}
