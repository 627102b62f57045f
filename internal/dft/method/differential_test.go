package method_test

import (
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/hw/platform"
	"vasppower/internal/workloads"
)

// TestTableResolutionMatchesLegacyOracle is the refactor's safety net:
// every kernel any Table I benchmark can emit, under every method kind,
// must resolve through the default platform's efficiency table to the
// bit-exact profile the pre-refactor inline constants produced. This is
// what keeps the default-platform golden output byte-identical.
func TestTableResolutionMatchesLegacyOracle(t *testing.T) {
	p := platform.Default()
	if p.Efficiency == nil {
		t.Fatal("default platform carries no efficiency table")
	}
	kernels := 0
	for _, bench := range workloads.TableI() {
		for _, kind := range method.Kinds() {
			cfg, err := bench.Config(p, bench.OptimalNodes)
			if err != nil {
				t.Fatalf("%s: %v", bench.Name, err)
			}
			cfg.Kind = kind
			if kind == method.ACFDTR && cfg.NBandsExact == 0 {
				cfg.NBandsExact = 8000
			}
			sched, err := method.Build(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", bench.Name, kind, err)
			}
			for si, st := range sched.Steps {
				if st.Kind != method.StepGPU {
					continue
				}
				k := sched.Kernels[st.Kernel]
				got, err := p.Efficiency.Resolve(k)
				if err != nil {
					t.Fatalf("%s/%s step %d: %v", bench.Name, kind, si, err)
				}
				want, ok := method.LegacyResolve(k)
				if !ok {
					t.Fatalf("%s/%s step %d: class %q unknown to the oracle",
						bench.Name, kind, si, k.Class)
				}
				if got != want {
					t.Fatalf("%s/%s step %d (class %q): table %+v != oracle %+v",
						bench.Name, kind, si, k.Class, got, want)
				}
				kernels++
			}
		}
	}
	if kernels < 1000 {
		t.Fatalf("differential sweep covered only %d kernels", kernels)
	}
}
