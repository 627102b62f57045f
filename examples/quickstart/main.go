// Quickstart: measure the power profile of one VASP benchmark on a
// simulated Perlmutter GPU node, the way the paper characterizes
// every workload — run it, sample the telemetry, and report the high
// power mode rather than the mean or max.
package main

import (
	"fmt"
	"log"

	"vasppower"
)

func main() {
	bench, ok := vasppower.BenchmarkByName("PdO4")
	if !ok {
		log.Fatal("benchmark not found")
	}
	fmt.Printf("benchmark: %s — %s\n", bench.Name, bench.Description)
	fmt.Printf("system: %d ions, %d electrons, NBANDS %d, NPLWV %d\n\n",
		bench.Structure.NumIons, bench.Structure.Electrons, bench.NBands, bench.NPLWV())

	// Five repeats with minimum-runtime selection, default power
	// limits, one node of the default platform (four A100s).
	profile, err := vasppower.Measure(vasppower.MeasureSpec{Bench: bench, Repeats: 5, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("runtime: %.0f s, energy to solution: %.2f MJ\n",
		profile.Runtime, profile.EnergyJ/1e6)
	if m, ok := profile.NodeTotal.HighMode(); ok {
		fmt.Printf("node high power mode: %.0f W (FWHM %.0f W)\n", m.X, m.FWHM)
	}
	fmt.Printf("node power: min %.0f / median %.0f / mean %.0f / max %.0f W\n",
		profile.NodeTotal.Summary.Min, profile.NodeTotal.Summary.Median,
		profile.NodeTotal.Summary.Mean, profile.NodeTotal.Summary.Max)
	fmt.Printf("the GPUs draw %.0f%% of node power; CPU+memory %.0f%%\n",
		profile.GPUShareOfNode()*100, profile.CPUMemShareOfNode()*100)

	// The same analysis works on any power sample.
	mode, ok := vasppower.HighPowerMode(profile.GPUs[0].Series.Values)
	if ok {
		fmt.Printf("GPU 0 high power mode: %.0f W\n", mode.X)
	}
}
