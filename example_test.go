package vasppower_test

// Godoc examples for the public API. Output blocks make them part of
// the test suite; everything is deterministic given the seeds.

import (
	"fmt"

	"vasppower"
)

// ExampleBenchmarkByName shows how the Table I suite is addressed.
func ExampleBenchmarkByName() {
	b, ok := vasppower.BenchmarkByName("Si256_hse")
	if !ok {
		panic("missing benchmark")
	}
	fmt.Println(b.Name, b.Structure.Electrons, b.NBands, b.NPLWV())
	// Output: Si256_hse 1020 640 512000
}

// ExampleHighPowerMode computes the paper's headline metric from raw
// power samples.
func ExampleHighPowerMode() {
	var watts []float64
	for i := 0; i < 3000; i++ {
		if i%4 == 0 {
			watts = append(watts, 1800+float64(i%5))
		} else {
			watts = append(watts, 900+float64(i%9))
		}
	}
	mode, ok := vasppower.HighPowerMode(watts)
	fmt.Println(ok, mode.X > 1750 && mode.X < 1850)
	// Output: true true
}

// ExampleMeasure profiles one benchmark end to end.
func ExampleMeasure() {
	b, _ := vasppower.BenchmarkByName("B.hR105_hse")
	jp, err := vasppower.Measure(vasppower.MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, CapW: 0, Seed: 42})
	if err != nil {
		panic(err)
	}
	mode, ok := jp.NodeTotal.HighMode()
	fmt.Println(jp.Runtime > 0, ok, mode.X > 1000, jp.GPUShareOfNode() > 0.5)
	// Output: true true true true
}

// ExampleMeasureCapResponse reproduces the 50%-TDP headline on one
// workload.
func ExampleMeasureCapResponse() {
	b, _ := vasppower.BenchmarkByName("GaAsBi-64")
	cr, err := vasppower.MeasureCapResponse(vasppower.MeasureSpec{Bench: b, Nodes: 1, Repeats: 1, Seed: 42}, []float64{400, 200})
	if err != nil {
		panic(err)
	}
	slow, _ := cr.SlowdownAt(200)
	fmt.Printf("slowdown at 50%% TDP below 10%%: %v\n", slow < 0.10)
	// Output: slowdown at 50% TDP below 10%: true
}

// ExampleSiliconBenchmark builds the §IV synthetic family.
func ExampleSiliconBenchmark() {
	b, err := vasppower.SiliconBenchmark(256, vasppower.MethodDFTBD)
	if err != nil {
		panic(err)
	}
	fmt.Println(b.Structure.NumIons, b.Structure.Electrons, b.NBands)
	// Output: 256 1024 640
}
