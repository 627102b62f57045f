// Command minivasp runs one simulated VASP job and prints its
// performance and power profile — the equivalent of a single
// instrumented batch job on the real system.
//
// The job can be selected three ways:
//
//	minivasp -bench Si256_hse [-nodes 2] [-cap 200] [-repeats 5]
//	minivasp -incar INCAR [-kpoints KPOINTS] -si-atoms 256 [-nodes 1]
//	minivasp -milc [-nodes 2] [-cap 200]        (the MILC application)
//
// VASP measurements run through the run's two-tier result cache
// (experiments.Env); with -cache-dir set, re-running the same job (same inputs,
// nodes, cap, seed) serves its profile from disk instead of
// re-simulating. The MILC path keeps its own raw-trace pipeline and is
// not cached.
//
// The second form parses real VASP input files (INCAR and optionally
// KPOINTS) and applies them to a silicon supercell of the given size,
// deriving FFT grids, plane-wave counts, and default band counts the
// way VASP would.
package main

import (
	"flag"
	"fmt"
	"os"

	"vasppower"
	"vasppower/internal/dft/incar"
	"vasppower/internal/dft/lattice"
	"vasppower/internal/dft/method"
	"vasppower/internal/experiments"
	"vasppower/internal/obs"
	"vasppower/internal/report"
	"vasppower/internal/workloads"
)

func main() {
	benchName := flag.String("bench", "", "Table I benchmark name (see -list)")
	milc := flag.Bool("milc", false, "run the MILC lattice-QCD workload instead of VASP")
	list := flag.Bool("list", false, "list available benchmarks and exit")
	incarPath := flag.String("incar", "", "path to an INCAR file")
	kpointsPath := flag.String("kpoints", "", "path to a KPOINTS file (default Γ-only)")
	siAtoms := flag.Int("si-atoms", 0, "silicon supercell size for -incar runs")
	nodes := flag.Int("nodes", 1, "node count")
	cap := flag.Float64("cap", 0, "GPU power cap in watts (0 = the GPU's default TDP limit)")
	repeats := flag.Int("repeats", 1, "repeats (min-runtime selection)")
	seed := flag.Uint64("seed", 42, "random seed")
	cacheDir := flag.String("cache-dir", "", "persistent measurement-cache directory (empty = in-memory only)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 1<<30, "persistent cache size bound in bytes, LRU-evicted (0 = unbounded)")
	version := flag.Bool("version", false, "print module version, VCS revision, and dirty flag, then exit")
	flag.Parse()

	if *version {
		fmt.Println(obs.VersionString("minivasp"))
		return
	}

	env, err := experiments.NewEnv(experiments.EnvOptions{CacheDir: *cacheDir, CacheMaxBytes: *cacheMaxBytes})
	if err != nil {
		fatalf("%v", err)
	}

	if *list {
		for _, b := range vasppower.Benchmarks() {
			fmt.Printf("%-14s %s\n", b.Name, b.Description)
		}
		fmt.Printf("%-14s %s\n", "-milc", "32³×64 staggered lattice QCD (the second application)")
		return
	}

	if *milc {
		runMILC(*nodes, *cap, *repeats, *seed)
		return
	}

	var bench vasppower.Benchmark
	switch {
	case *benchName != "":
		b, ok := vasppower.BenchmarkByName(*benchName)
		if !ok {
			fatalf("unknown benchmark %q (use -list)", *benchName)
		}
		bench = b
	case *incarPath != "":
		b, err := benchmarkFromFiles(*incarPath, *kpointsPath, *siAtoms)
		if err != nil {
			fatalf("%v", err)
		}
		bench = b
	default:
		fatalf("need -bench or -incar (try -list)")
	}

	fmt.Printf("running %s on %d node(s), %d repeat(s)", bench.Name, *nodes, *repeats)
	if *cap > 0 {
		fmt.Printf(", GPU cap %.0f W", *cap)
	}
	fmt.Println()

	jp, err := env.Measure(vasppower.MeasureSpec{
		Bench: bench, Nodes: *nodes, Repeats: *repeats, CapW: *cap, Seed: *seed,
	})
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("\nruntime   %s\n", report.Seconds(jp.Runtime))
	fmt.Printf("energy    %.2f MJ\n", jp.EnergyJ/1e6)
	if m, ok := jp.NodeTotal.HighMode(); ok {
		fmt.Printf("node high power mode  %.0f W (FWHM %.0f W)\n", m.X, m.FWHM)
	}
	fmt.Printf("node power  min %.0f  median %.0f  mean %.0f  max %.0f W\n",
		jp.NodeTotal.Summary.Min, jp.NodeTotal.Summary.Median,
		jp.NodeTotal.Summary.Mean, jp.NodeTotal.Summary.Max)
	fmt.Printf("GPU share %.0f%% of node power; CPU+memory %.0f%%\n",
		jp.GPUShareOfNode()*100, jp.CPUMemShareOfNode()*100)
	fmt.Println("\nnode power timeline (2 s telemetry):")
	fmt.Println(report.SeriesLine("node", jp.NodeTotal.Series, 70))
	for i := range jp.GPUs {
		fmt.Println(report.SeriesLine(fmt.Sprintf("gpu%d", i), jp.GPUs[i].Series, 70))
	}
}

// runMILC executes the MILC workload and prints its profile.
func runMILC(nodes int, cap float64, repeats int, seed uint64) {
	spec := workloads.DefaultMILC()
	fmt.Printf("running %s (%d³×%d lattice) on %d node(s)", spec.Name,
		spec.Lattice[0], spec.Lattice[3], nodes)
	if cap > 0 {
		fmt.Printf(", GPU cap %.0f W", cap)
	}
	fmt.Println()
	out, err := workloads.RunMILC(workloads.MILCRunSpec{
		Spec: spec, Nodes: nodes, GPUPowerLimit: cap, Repeats: repeats, Seed: seed,
	})
	if err != nil {
		fatalf("%v", err)
	}
	n := out.Nodes[0]
	fmt.Printf("\nruntime   %s\n", report.Seconds(out.BestResult.Runtime))
	fmt.Printf("energy    %.2f MJ\n", out.BestResult.EnergyJ/1e6)
	s := n.TotalTrace().Sample(2).Slice(out.VASPStart, out.VASPEnd)
	fmt.Println(report.SeriesLine("node", s, 70))
	for i := 0; i < n.NumGPUs(); i++ {
		g := n.GPUTrace(i).Sample(2).Slice(out.VASPStart, out.VASPEnd)
		fmt.Println(report.SeriesLine(fmt.Sprintf("gpu%d", i), g, 70))
	}
}

// benchmarkFromFiles builds a runnable workload from VASP input files
// applied to a silicon supercell.
func benchmarkFromFiles(incarPath, kpointsPath string, siAtoms int) (vasppower.Benchmark, error) {
	var bench vasppower.Benchmark
	if siAtoms <= 0 {
		return bench, fmt.Errorf("-incar runs need -si-atoms")
	}
	text, err := os.ReadFile(incarPath)
	if err != nil {
		return bench, err
	}
	f, err := incar.Parse(string(text))
	if err != nil {
		return bench, err
	}
	params, err := f.TypedParams()
	if err != nil {
		return bench, err
	}
	kind, err := method.FromParams(params)
	if err != nil {
		return bench, err
	}
	kp := incar.GammaOnly()
	if kpointsPath != "" {
		ktext, err := os.ReadFile(kpointsPath)
		if err != nil {
			return bench, err
		}
		if kp, err = incar.ParseKPoints(string(ktext)); err != nil {
			return bench, err
		}
	}
	s, err := lattice.SiliconSupercell(siAtoms)
	if err != nil {
		return bench, err
	}
	encut := params.ENCUT
	if encut <= 0 {
		encut = lattice.SiEncutDefault
	}
	grid, err := lattice.FFTGrid(s, encut, params.Prec)
	if err != nil {
		return bench, err
	}
	nbands := params.NBands
	if nbands == 0 {
		nbands = lattice.DefaultNBands(s.Electrons, s.NumIons, 8)
	}
	bench = workloads.Benchmark{
		Name:         params.System,
		Description:  "user INCAR on a silicon supercell",
		Structure:    s,
		Method:       kind,
		Functional:   string(params.Algo),
		AlgoName:     string(params.Algo),
		NELM:         params.NELM,
		NBands:       nbands,
		NBandsExact:  params.NBandsExact,
		FFTGrid:      grid,
		KPoints:      kp,
		KPar:         params.KPar,
		ENCUT:        encut,
		OptimalNodes: 1,
	}
	if kind == method.ACFDTR && bench.NBandsExact == 0 {
		bench.NBandsExact = bench.NPW()
	}
	return bench, bench.Validate()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "minivasp: "+format+"\n", args...)
	os.Exit(1)
}
