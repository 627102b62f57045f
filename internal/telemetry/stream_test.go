// End-to-end property tests over a real simulated workload; external
// test package so it can import workloads (which itself hooks into
// telemetry) without a cycle.
package telemetry_test

import (
	"math"
	"testing"

	"vasppower/internal/hw/node"
	"vasppower/internal/telemetry"
	"vasppower/internal/workloads"
)

// Property (acceptance criterion): on a real VASP run's stream, every
// (host, timestamp) carries all four domain scopes with
// gpu + memory ≤ module ≤ node.
func TestStreamDomainInvariantOnWorkload(t *testing.T) {
	bench, ok := workloads.ByName("B.hR105_hse")
	if !ok {
		t.Fatal("benchmark missing")
	}
	out, err := workloads.Run(workloads.RunSpec{Bench: bench, Nodes: 1, Repeats: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(nil)
	sub, err := hub.Subscribe("", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := telemetry.NewSampler(hub, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s.PublishRun(out.Nodes)
	type key struct {
		host string
		t    float64
	}
	byTS := make(map[key]map[node.Domain]float64)
	for {
		smp, ok := sub.TryNext()
		if !ok {
			break
		}
		if !node.ValidDomain(smp.Domain) {
			t.Fatalf("invalid domain %q on stream", smp.Domain)
		}
		if math.IsNaN(smp.Watts) || smp.Watts < 0 {
			t.Fatalf("bad watts %v at %+v", smp.Watts, smp)
		}
		k := key{smp.Host, smp.T}
		if byTS[k] == nil {
			byTS[k] = make(map[node.Domain]float64, 4)
		}
		byTS[k][smp.Domain] = smp.Watts
	}
	if sub.Dropped() != 0 {
		t.Fatalf("lossless subscriber dropped %d", sub.Dropped())
	}
	if len(byTS) == 0 {
		t.Fatal("empty stream")
	}
	for k, doms := range byTS {
		if len(doms) != 4 {
			t.Fatalf("%v: got %d domains, want 4", k, len(doms))
		}
		g, m := doms[node.DomainGPU], doms[node.DomainMemory]
		mod, nd := doms[node.DomainModule], doms[node.DomainNode]
		if g+m > mod+1e-6 {
			t.Fatalf("%v: gpu %v + memory %v > module %v", k, g, m, mod)
		}
		if mod > nd+1e-6 {
			t.Fatalf("%v: module %v > node %v", k, mod, nd)
		}
		// The stream is live power, not idle filler: module covers at
		// least the GPUs' idle draw.
		if mod <= 0 || nd <= 0 {
			t.Fatalf("%v: nonpositive power", k)
		}
	}
}

// Streaming a run through the sampler must reproduce the trace's
// energy: Σ watts·interval over the stream equals the node trace's
// integral (the exporter's joules counters depend on this).
func TestStreamEnergyMatchesTrace(t *testing.T) {
	bench, _ := workloads.ByName("B.hR105_hse")
	out, err := workloads.Run(workloads.RunSpec{Bench: bench, Nodes: 1, Repeats: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	n := out.Nodes[0]
	hub := telemetry.NewHub(nil)
	sub, _ := hub.Subscribe(node.DomainNode, 1<<20)
	s, _ := telemetry.NewSampler(hub, 0.5)
	s.PublishRun(out.Nodes)
	var joules, prevT float64
	for {
		smp, ok := sub.TryNext()
		if !ok {
			break
		}
		joules += smp.Watts * (smp.T - prevT)
		prevT = smp.T
	}
	want := n.TotalTrace().Energy()
	if math.Abs(joules-want) > want*1e-9+1e-6 {
		t.Fatalf("stream energy %v J, trace energy %v J", joules, want)
	}
}
