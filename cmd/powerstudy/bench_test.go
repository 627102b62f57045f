package main

import (
	"io"
	"testing"

	"vasppower/internal/experiments"
)

// BenchmarkQuickStudyCold is one whole cold -quick run per iteration,
// serial (Workers: 1), through one fresh Env: every measurement
// computes, so B/op is what a cold study allocates end to end.
func BenchmarkQuickStudyCold(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := experiments.NewEnv(experiments.EnvOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run(experiments.Config{Seed: 2024, Quick: true, Workers: 1, Env: env}, "", "", io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
