package gpu

import (
	"testing"

	"vasppower/internal/rng"
)

// execsEqual demands exact float equality on every Execution field —
// the CapSolver contract is bit-identity with Run, not tolerance.
func execsEqual(t *testing.T, label string, want, got Execution) {
	t.Helper()
	if want != got {
		t.Fatalf("%s: solver %+v vs Run %+v", label, got, want)
	}
}

// capSolverDevices spans the spec × variability grid the incremental
// engine sees in practice: nominal boards of both A100 flavors plus
// seeded-variability devices whose idle/efficiency scales differ.
func capSolverDevices() []*GPU {
	devs := []*GPU{
		New(A100SXM40GB(), nil, 0, nil, DefaultVariability()),
		New(A100SXM80GB(), nil, 0, nil, DefaultVariability()),
	}
	r := rng.New(99)
	for i := 0; i < 4; i++ {
		devs = append(devs, New(A100SXM40GB(), nil, i, r.Split("var"), DefaultVariability()))
		devs = append(devs, New(A100SXM80GB(), nil, i, r.Split("var80"), DefaultVariability()))
	}
	return devs
}

// TestCapSolverMatchesRun pins NewCapSolver(spec, k, p).Solve(g) to the
// unhoisted oracle g.Run(k) bit-for-bit across kernels (fixed compute-
// and memory-bound plus a random draw from every class), devices with
// seeded variability, and the full power- and clock-limit grid —
// uncapped, binding, and floor. Each kernel's solver is built once per
// spec and shared by every device of that spec, as the prepared engine
// shares it.
func TestCapSolverMatchesRun(t *testing.T) {
	kr := rng.New(41)
	kernels := []Kernel{dgemmKernel(), streamKernel()}
	for i := 0; i < 24; i++ {
		kernels = append(kernels, randomKernel(kr))
	}

	devs := capSolverDevices()
	solvers := map[string][]CapSolver{}
	for _, g := range devs {
		if _, ok := solvers[g.Spec.Name]; ok {
			continue
		}
		for _, k := range kernels {
			solvers[g.Spec.Name] = append(solvers[g.Spec.Name], NewCapSolver(g.Spec, k, resolve(t, g, k)))
		}
	}
	for di, g := range devs {
		caps := []float64{0, g.Spec.TDP, g.Spec.MinPowerLimit,
			g.Spec.MinPowerLimit + 30, 200, 250, 330}
		clocks := []float64{0, g.Spec.MaxClockMHz,
			g.Spec.MinClockFrac * g.Spec.MaxClockMHz, 1100}
		for ki, k := range kernels {
			s := &solvers[g.Spec.Name][ki]
			if got, want := g.UncappedPower(k), g.powerAt(k, resolve(t, g, k), 1); got != want {
				t.Fatalf("dev=%d kernel=%d: UncappedPower %v vs oracle %v", di, ki, got, want)
			}
			if got, want := g.UncappedDuration(k), g.timeAt(k, resolve(t, g, k), 1); got != want {
				t.Fatalf("dev=%d kernel=%d: UncappedDuration %v vs oracle %v", di, ki, got, want)
			}
			for _, capW := range caps {
				for _, mhz := range clocks {
					if capW == 0 {
						g.ResetPowerLimit()
					} else if err := g.SetPowerLimit(capW); err != nil {
						t.Fatal(err)
					}
					if mhz == 0 {
						g.ResetClockLimit()
					} else if err := g.SetClockLimitMHz(mhz); err != nil {
						t.Fatal(err)
					}
					want := g.Run(k)
					got := s.Solve(g)
					execsEqual(t, // label carries the failing grid point
						// (device, kernel, cap, clock)
						kernelGridLabel(di, ki, capW, mhz), want, got)
				}
			}
			g.ResetPowerLimit()
			g.ResetClockLimit()
		}
	}
}

func kernelGridLabel(di, ki int, capW, mhz float64) string {
	return "dev=" + itoa(di) + " kernel=" + itoa(ki) +
		" cap=" + itoa(int(capW)) + "W clock=" + itoa(int(mhz)) + "MHz"
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestCapSolverMemBoundFastPath checks the collapsed predicate really
// engages for a memory-bound kernel and stays off for a compute-bound
// one — the structural speedup the incremental engine relies on.
func TestCapSolverMemBoundFastPath(t *testing.T) {
	g := nominal()
	sk := streamKernel()
	s := NewCapSolver(g.Spec, sk, resolve(t, g, sk))
	if !s.memBound {
		t.Fatal("STREAM kernel not detected as memory-bound")
	}
	dk := dgemmKernel()
	s = NewCapSolver(g.Spec, dk, resolve(t, g, dk))
	if s.memBound {
		t.Fatal("DGEMM kernel mis-detected as memory-bound")
	}
}

// BenchmarkCapSolverSolve measures the per-point bisection cost the
// prepared engine pays, against the oracle's resolve-and-bisect.
func BenchmarkCapSolverSolve(b *testing.B) {
	g := nominal()
	if err := g.SetPowerLimit(250); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		k    Kernel
	}{{"compute", dgemmKernel()}, {"memory", streamKernel()}} {
		p, err := g.Resolve(bc.k)
		if err != nil {
			b.Fatal(err)
		}
		s := NewCapSolver(g.Spec, bc.k, p)
		b.Run(bc.name+"/oracle", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Run(bc.k)
			}
		})
		b.Run(bc.name+"/capsolver", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Solve(g)
			}
		})
	}
	g.ResetPowerLimit()
}
