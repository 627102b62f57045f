package workloads

import (
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/hw/gpu"
	"vasppower/internal/hw/platform"
)

// checkTable asserts that sched's descriptor table is the interned
// form of its GPU steps — every step's index in range, no entry
// duplicated, every entry run by some GPU step — and returns the
// number of GPU steps.
func checkTable(t *testing.T, name string, sched *method.Schedule) int {
	t.Helper()
	for i := range sched.Kernels {
		for j := range i {
			if sched.Kernels[i] == sched.Kernels[j] {
				t.Fatalf("%s: descriptors %d and %d are equal: %+v", name, j, i, sched.Kernels[i])
			}
		}
	}
	used := make([]bool, len(sched.Kernels))
	gpuSteps := 0
	for si, st := range sched.Steps {
		if st.Kind != method.StepGPU {
			continue
		}
		if st.Kernel < 0 || int(st.Kernel) >= len(sched.Kernels) {
			t.Fatalf("%s: GPU step %d runs descriptor %d of %d", name, si, st.Kernel, len(sched.Kernels))
		}
		used[st.Kernel] = true
		gpuSteps++
	}
	for ki, u := range used {
		if !u {
			t.Fatalf("%s: no GPU step runs descriptor %d (%s)", name, ki, sched.Kernels[ki].Class)
		}
	}
	return gpuSteps
}

// TestDescriptorTables checks the descriptor table of every schedule
// the repository runs: each Table I benchmark under every method kind
// at 1, 2 and 4 nodes, plus the MILC, DGEMM and STREAM schedules. A
// benchmark under its own method has the distinct-descriptor and
// GPU-step counts DESIGN.md documents, at every node count.
func TestDescriptorTables(t *testing.T) {
	want := map[string]struct{ kernels, gpuSteps int }{
		"Si256_hse":    {8, 410},
		"B.hR105_hse":  {8, 170},
		"PdO4":         {6, 360},
		"PdO2":         {6, 360},
		"GaAsBi-64":    {8, 2880},
		"CuC_vdw":      {7, 1140},
		"Si128_acfdtr": {7, 108},
	}
	p := platform.Default()
	for _, b := range TableI() {
		w, ok := want[b.Name]
		if !ok {
			t.Fatalf("%s: no expected counts", b.Name)
		}
		for _, kind := range method.Kinds() {
			for _, nodes := range []int{1, 2, 4} {
				cfg, err := b.Config(p, nodes)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Kind = kind
				if kind == method.ACFDTR && cfg.NBandsExact == 0 {
					cfg.NBandsExact = 8000
				}
				sched, err := method.Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				gpuSteps := checkTable(t, b.Name+"/"+kind.String(), sched)
				if kind == b.Method && (len(sched.Kernels) != w.kernels || gpuSteps != w.gpuSteps) {
					t.Fatalf("%s at %d nodes: %d descriptors over %d GPU steps, want %d over %d",
						b.Name, nodes, len(sched.Kernels), gpuSteps, w.kernels, w.gpuSteps)
				}
			}
		}
	}

	milc := DefaultMILC()
	d, err := parallel.Decompose(milc.Lattice[3], 1, 1, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := gpu.A100SXM40GB()
	for _, tc := range []struct {
		name              string
		sched             *method.Schedule
		kernels, gpuSteps int
	}{
		{"milc", milcSchedule(milc, d), 2, 2 * milc.Trajectories * milc.MDSteps},
		{"dgemm", DGEMMSchedule(spec, dgemmSeconds), 1, 1},
		{"stream", StreamSchedule(spec, streamSeconds), 1, 1},
	} {
		if got := checkTable(t, tc.name, tc.sched); len(tc.sched.Kernels) != tc.kernels || got != tc.gpuSteps {
			t.Fatalf("%s: %d descriptors over %d GPU steps, want %d over %d",
				tc.name, len(tc.sched.Kernels), got, tc.kernels, tc.gpuSteps)
		}
	}
}
