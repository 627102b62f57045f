// Package workloads defines the paper's benchmark suite (Table I),
// the silicon-supercell families of §IV, the DGEMM/STREAM burn-in
// microbenchmarks, and the execution protocol (§III-B): five repeats,
// DGEMM+STREAM+idle prelude, minimum-runtime selection.
package workloads

import (
	"fmt"

	"vasppower/internal/dft/incar"
	"vasppower/internal/dft/lattice"
	"vasppower/internal/dft/method"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/hw/platform"
)

// Benchmark is one fully-specified VASP workload.
type Benchmark struct {
	Name        string
	Description string
	Structure   lattice.Structure
	Method      method.Kind
	Functional  string // as Table I names it: HSE, DFT (LDA), DFT (GGA), VDW, ACFDT/RPA
	AlgoName    string // Table I's Algo row
	NELM        int
	NELMDL      int
	NBands      int
	NBandsExact int
	FFTGrid     [3]int
	KPoints     incar.KPoints
	KPar        int
	ENCUT       float64
	// OptimalNodes is the node count "optimizing runtime while
	// remaining above 70% parallel efficiency" used for the
	// power-capping experiments (Figs. 10, 12).
	OptimalNodes int
}

// NPLWV returns the dense grid point count.
func (b Benchmark) NPLWV() int { return lattice.NPLWV(b.FFTGrid) }

// NPW returns the plane waves per band.
func (b Benchmark) NPW() int { return lattice.PlaneWavesPerBand(b.NPLWV()) }

// TableI returns the seven benchmarks with the published parameters
// (electrons/ions, functional, algorithm, NELM, NBANDS, FFT grids,
// NPLWV, and k-point settings all match Table I). The returned slice
// is a fresh copy (Benchmark holds only value fields), so callers may
// reorder or edit theirs.
func TableI() []Benchmark {
	out := make([]Benchmark, len(tableI))
	copy(out, tableI)
	return out
}

// tableI is the memoized table behind TableI, ByName, and Names —
// lookups on the serving path must not rebuild seven Benchmark
// literals per request.
var tableI = buildTableI()

func buildTableI() []Benchmark {
	return []Benchmark{
		{
			Name:        "Si256_hse",
			Description: "256-atom silicon supercell with a vacancy, HSE hybrid functional",
			Structure: lattice.Structure{
				Name: "Si256_vac", Formula: "Si255",
				NumIons: 255, Electrons: 1020,
				A: 17.243, B: 17.243, C: 17.243,
			},
			Method: method.HSE, Functional: "HSE", AlgoName: "CG (Damped)",
			NELM: 41, NBands: 640,
			FFTGrid: [3]int{80, 80, 80},
			KPoints: incar.GammaOnly(), KPar: 1, ENCUT: 410,
			OptimalNodes: 4,
		},
		{
			Name:        "B.hR105_hse",
			Description: "105-atom hexa-boron structure, HSE hybrid functional",
			Structure: lattice.Structure{
				Name: "B.hR105", Formula: "B105",
				NumIons: 105, Electrons: 315,
				A: 10.93, B: 10.93, C: 10.93,
			},
			Method: method.HSE, Functional: "HSE", AlgoName: "CG (Damped)",
			NELM: 17, NBands: 256,
			FFTGrid: [3]int{48, 48, 48},
			KPoints: incar.GammaOnly(), KPar: 1, ENCUT: 320,
			OptimalNodes: 2,
		},
		{
			Name:        "PdO4",
			Description: "348-atom PdO slab, LDA functional, RMM-DIIS",
			Structure: lattice.Structure{
				Name: "PdO4", Formula: "Pd192O156",
				NumIons: 348, Electrons: 3288,
				A: 17.1, B: 25.6, C: 11.5,
			},
			Method: method.DFTRMM, Functional: "DFT (LDA)", AlgoName: "RMM (VeryFast)",
			NELM: 60, NBands: 2048,
			FFTGrid: [3]int{80, 120, 54},
			KPoints: incar.GammaOnly(), KPar: 1, ENCUT: 450,
			OptimalNodes: 2,
		},
		{
			Name:        "PdO2",
			Description: "174-atom PdO slab, LDA functional, RMM-DIIS",
			Structure: lattice.Structure{
				Name: "PdO2", Formula: "Pd96O78",
				NumIons: 174, Electrons: 1644,
				A: 17.1, B: 12.8, C: 11.5,
			},
			Method: method.DFTRMM, Functional: "DFT (LDA)", AlgoName: "RMM (VeryFast)",
			NELM: 60, NBands: 1024,
			FFTGrid: [3]int{80, 60, 54},
			KPoints: incar.GammaOnly(), KPar: 1, ENCUT: 450,
			OptimalNodes: 1,
		},
		{
			Name:        "GaAsBi-64",
			Description: "64-atom GaAsBi ternary alloy, GGA, Davidson+RMM-DIIS",
			Structure: lattice.Structure{
				Name: "GaAsBi-64", Formula: "Ga32As31Bi1",
				NumIons: 64, Electrons: 266,
				A: 11.4, B: 11.4, C: 11.4,
			},
			Method: method.DFTBDRMM, Functional: "DFT (GGA)", AlgoName: "BD+RMM (Fast)",
			NELM: 60, NBands: 192,
			FFTGrid: [3]int{70, 70, 70},
			KPoints: incar.Mesh(4, 4, 4), KPar: 2, ENCUT: 400,
			OptimalNodes: 2,
		},
		{
			Name:        "CuC_vdw",
			Description: "98-atom Cu/C interface with van der Waals corrections",
			Structure: lattice.Structure{
				Name: "CuC_vdw", Formula: "Cu49C49",
				NumIons: 98, Electrons: 1064,
				A: 12.8, B: 12.8, C: 38.4,
			},
			Method: method.VDW, Functional: "VDW", AlgoName: "RMM (VeryFast)",
			NELM: 60, NBands: 640,
			FFTGrid: [3]int{70, 70, 210},
			KPoints: incar.Mesh(3, 3, 1), KPar: 1, ENCUT: 400,
			OptimalNodes: 1,
		},
		{
			Name:        "Si128_acfdtr",
			Description: "128-atom silicon supercell, RPA/ACFDT correlation energy",
			Structure: lattice.Structure{
				Name: "Si128", Formula: "Si128",
				NumIons: 128, Electrons: 512,
				A: 13.685, B: 13.685, C: 13.685,
			},
			Method: method.ACFDTR, Functional: "ACFDT/RPA", AlgoName: "ACFDTR",
			NELM: 14, NBands: 320, NBandsExact: 23506,
			FFTGrid: [3]int{60, 60, 60},
			KPoints: incar.GammaOnly(), KPar: 1, ENCUT: 367,
			OptimalNodes: 2,
		},
	}
}

// ByName returns the Table I benchmark with the given name. It
// allocates nothing — powerd resolves every request through it.
func ByName(name string) (Benchmark, bool) {
	for _, b := range tableI {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Names returns the benchmark names in Table I order.
func Names() []string {
	out := make([]string, len(tableI))
	for i, b := range tableI {
		out[i] = b.Name
	}
	return out
}

// Validate checks internal consistency of a benchmark definition.
func (b Benchmark) Validate() error {
	if err := b.Structure.Validate(); err != nil {
		return fmt.Errorf("workloads %s: %w", b.Name, err)
	}
	switch {
	case b.NELM <= 0:
		return fmt.Errorf("workloads %s: NELM %d", b.Name, b.NELM)
	case b.NBands < b.Structure.Electrons/2:
		return fmt.Errorf("workloads %s: NBANDS %d below occupied %d", b.Name, b.NBands, b.Structure.Electrons/2)
	case b.NPLWV() <= 0:
		return fmt.Errorf("workloads %s: empty FFT grid", b.Name)
	case b.KPar <= 0 || b.KPar > b.KPoints.Reduced():
		return fmt.Errorf("workloads %s: KPAR %d vs %d k-points", b.Name, b.KPar, b.KPoints.Reduced())
	case b.OptimalNodes <= 0:
		return fmt.Errorf("workloads %s: OptimalNodes %d", b.Name, b.OptimalNodes)
	}
	if b.Method == method.ACFDTR && b.NBandsExact <= 0 {
		return fmt.Errorf("workloads %s: ACFDTR needs NBANDSEXACT", b.Name)
	}
	return nil
}

// Config resolves the benchmark into a method configuration and
// decomposition for the given platform and node count (one MPI rank
// per GPU, as the paper's job scripts run).
func (b Benchmark) Config(p platform.Platform, nodes int) (method.Config, error) {
	p = platform.OrDefault(p)
	kpar := b.KPar
	ranks := nodes * p.GPUsPerNode
	// KPAR must divide the rank count; if the configured KPAR cannot,
	// fall back to 1 (what a user would do).
	if ranks%kpar != 0 {
		kpar = 1
	}
	d, err := parallel.Decompose(b.NBands, b.KPoints.Reduced(), nodes, p.GPUsPerNode, kpar)
	if err != nil {
		return method.Config{}, fmt.Errorf("workloads %s @%d nodes: %w", b.Name, nodes, err)
	}
	cfg := method.Config{
		Kind:        b.Method,
		NBands:      b.NBands,
		NPW:         b.NPW(),
		NPLWV:       b.NPLWV(),
		NElectrons:  b.Structure.Electrons,
		NIons:       b.Structure.NumIons,
		NELM:        b.NELM,
		NSim:        4,
		NBandsExact: b.NBandsExact,
		Decomp:      d,
	}
	// A configuration that cannot hold its working set within the
	// platform GPU's HBM is rejected exactly as the real run would
	// crash with an allocation failure.
	hbm := p.GPU.HBMBytes
	if mem := cfg.MemoryPerGPU(); mem > hbm {
		return method.Config{}, fmt.Errorf(
			"workloads %s @%d nodes: %.1f GiB per GPU exceeds the %.0f GiB HBM",
			b.Name, nodes, mem/(1<<30), hbm/(1<<30))
	}
	return cfg, nil
}

// SiliconBenchmark builds a synthetic benchmark around an n-atom
// silicon supercell with the given method — the §IV experiment
// family. ENCUT defaults to the silicon POTCAR value.
func SiliconBenchmark(nAtoms int, kind method.Kind) (Benchmark, error) {
	s, err := lattice.SiliconSupercell(nAtoms)
	if err != nil {
		return Benchmark{}, err
	}
	grid, err := lattice.FFTGrid(s, lattice.SiEncutDefault, "Normal")
	if err != nil {
		return Benchmark{}, err
	}
	b := Benchmark{
		Name:         fmt.Sprintf("Si%d_%s", nAtoms, kind),
		Description:  fmt.Sprintf("synthetic %d-atom silicon supercell, %s", nAtoms, kind),
		Structure:    s,
		Method:       kind,
		Functional:   "DFT",
		AlgoName:     kind.String(),
		NELM:         12,
		NBands:       lattice.DefaultNBands(s.Electrons, s.NumIons, 8),
		FFTGrid:      grid,
		KPoints:      incar.GammaOnly(),
		KPar:         1,
		ENCUT:        lattice.SiEncutDefault,
		OptimalNodes: 1,
	}
	if kind == method.ACFDTR {
		// All plane waves diagonalized exactly.
		b.NBandsExact = b.NPW()
	}
	return b, nil
}
