package timeseries_test

import (
	"fmt"
	"testing"

	"vasppower/internal/hw/node"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// TestSumMatchesReferenceOnNodeTraces checks the sums a node records
// against the reference merge on component traces recorded by the
// prepared engine — aligned boundaries, long equal-power runs on the
// CPU trace, cap-solved GPU powers: the GPU board sum (GPUSumTrace)
// and the node sensor (TotalTrace) must equal the reference merge of
// the components they sum, bit for bit, on a standalone run and on a
// sweep point recorded into storage the arena reused from the previous
// point.
func TestSumMatchesReferenceOnNodeTraces(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		nodes   int
		capW    float64
		entropy float64
	}{
		{"GaAsBi-64", 2, 250, 0},
		{"Si256_hse", 1, 0, 0.3},
		{"Si128_acfdtr", 1, 180, 0},
	} {
		b, ok := workloads.ByName(tc.bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", tc.bench)
		}
		spec := workloads.RunSpec{Bench: b, Nodes: tc.nodes, Repeats: 1, Seed: 5, OperandEntropy: tc.entropy}
		label := fmt.Sprintf("%s nodes=%d cap=%v", tc.bench, tc.nodes, tc.capW)
		t.Run(label, func(t *testing.T) {
			run := spec
			run.GPUPowerLimit = tc.capW
			out, err := workloads.Run(run)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range out.Nodes {
				checkNodeSums(t, n)
			}

			sw, err := workloads.NewSweep(spec)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
			for _, capW := range []float64{tc.capW, 300} {
				out, err := sw.RunCap(capW)
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range out.Nodes {
					checkNodeSums(t, n)
				}
			}
		})
	}
}

func checkNodeSums(t *testing.T, n *node.Node) {
	t.Helper()
	var gpus []*timeseries.Trace
	for gi := 0; gi < n.NumGPUs(); gi++ {
		gpus = append(gpus, n.GPUTrace(gi))
	}
	segsEqual(t, "gpu sum", n.GPUSumTrace(), timeseries.SumReference(gpus...))
	// The peripherals draw one constant power over the whole trace,
	// added last, as the node sensor adds them.
	var periph timeseries.Trace
	periph.Append(n.TraceDuration(), n.PeripheralPower())
	comps := append([]*timeseries.Trace{n.CPUTrace(), n.MemTrace()}, gpus...)
	segsEqual(t, "node sensor", n.TotalTrace(), timeseries.SumReference(append(comps, &periph)...))
}

func segsEqual(t *testing.T, label string, got, want *timeseries.Trace) {
	t.Helper()
	g, w := got.Segments(), want.Segments()
	if len(g) != len(w) {
		t.Fatalf("%s: %d segments, reference %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: segment %d is %+v, reference %+v", label, i, g[i], w[i])
		}
	}
}
