package interconnect

import (
	"testing"
)

func topo(nodes int) Topology { return Topology{Nodes: nodes, RanksPerNode: 4} }

func TestAllReduceSingleRankIsOverheadOnly(t *testing.T) {
	f := Slingshot()
	got := f.AllReduce(1e9, Topology{Nodes: 1, RanksPerNode: 1})
	if got != f.SoftwareOverhead {
		t.Fatalf("single-rank allreduce = %v, want overhead %v", got, f.SoftwareOverhead)
	}
}

func TestAllReduceGrowsWithNodes(t *testing.T) {
	f := Slingshot()
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		got := f.AllReduce(100e6, topo(n))
		if got <= prev {
			t.Fatalf("allreduce time not increasing at %d nodes: %v <= %v", n, got, prev)
		}
		prev = got
	}
}

func TestIntraNodeMuchFasterThanInterNode(t *testing.T) {
	f := Slingshot()
	intra := f.AllReduce(1e9, topo(1))
	inter := f.AllReduce(1e9, topo(2))
	if inter < 5*intra {
		t.Fatalf("inter-node allreduce (%v) should be ≫ intra-node (%v)", inter, intra)
	}
}

func TestAllReduceRingAsymptote(t *testing.T) {
	// For large P the ring transfer term approaches 2·bytes/bw.
	f := Slingshot()
	bytes := 1e9
	got := f.AllReduce(bytes, topo(256))
	ideal := 2 * bytes / f.InterNodeBW
	if got < ideal*0.98 || got > ideal*1.2 {
		t.Fatalf("large-P allreduce = %v, want ≈ %v", got, ideal)
	}
}

func TestAllToAllScalesWithRanks(t *testing.T) {
	f := Slingshot()
	t4 := f.AllToAll(1e6, topo(1))
	t16 := f.AllToAll(1e6, topo(4))
	if t16 < 2*t4 {
		t.Fatalf("alltoall should grow with ranks: %v vs %v", t4, t16)
	}
}

func TestBroadcastLogScaling(t *testing.T) {
	f := Slingshot()
	// Broadcast grows ~log2(P): doubling nodes adds about one step.
	t8 := f.Broadcast(1e6, topo(8))
	t16 := f.Broadcast(1e6, topo(16))
	t32 := f.Broadcast(1e6, topo(32))
	d1 := t16 - t8
	d2 := t32 - t16
	if d1 <= 0 || d2 <= 0 {
		t.Fatal("broadcast not increasing")
	}
	if d2 > 2*d1+1e-9 {
		t.Fatalf("broadcast should grow ~log: increments %v then %v", d1, d2)
	}
}

func TestZeroBytesCollectives(t *testing.T) {
	f := Slingshot()
	for name, got := range map[string]float64{
		"allreduce": f.AllReduce(0, topo(4)),
		"alltoall":  f.AllToAll(0, topo(4)),
		"broadcast": f.Broadcast(0, topo(4)),
	} {
		if got != f.SoftwareOverhead {
			t.Fatalf("%s with 0 bytes = %v, want overhead only", name, got)
		}
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative bytes did not panic")
		}
	}()
	Slingshot().AllReduce(-1, topo(2))
}

func TestInvalidTopologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid topology did not panic")
		}
	}()
	Slingshot().AllReduce(1, Topology{Nodes: 0, RanksPerNode: 4})
}
