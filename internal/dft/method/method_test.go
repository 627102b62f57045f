package method

import (
	"reflect"
	"testing"

	"vasppower/internal/dft/incar"
	"vasppower/internal/dft/parallel"
	"vasppower/internal/hw/gpu"
)

func testConfig(kind Kind) Config {
	d, err := parallel.Decompose(640, 1, 1, 4, 1)
	if err != nil {
		panic(err)
	}
	c := Config{
		Kind:       kind,
		NBands:     640,
		NPW:        33280,
		NPLWV:      512000,
		NElectrons: 1020,
		NIons:      255,
		NELM:       5,
		NSim:       4,
		Decomp:     d,
	}
	if kind == ACFDTR {
		c.NBandsExact = 8000
	}
	return c
}

func TestBuildAllKinds(t *testing.T) {
	for _, k := range Kinds() {
		s, err := Build(testConfig(k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if len(s.Steps) == 0 {
			t.Fatalf("%v: empty schedule", k)
		}
		// Every descriptor is valid, and every GPU step runs one.
		for i, kern := range s.Kernels {
			if err := kern.Validate(); err != nil {
				t.Fatalf("%v: descriptor %d: %v", k, i, err)
			}
		}
		for i, st := range s.Steps {
			switch st.Kind {
			case StepGPU:
				if st.Kernel < 0 || int(st.Kernel) >= len(s.Kernels) {
					t.Fatalf("%v: GPU step %d runs descriptor %d of %d", k, i, st.Kernel, len(s.Kernels))
				}
			case StepComm:
				if st.Comm.Bytes <= 0 {
					t.Fatalf("%v: comm step %d has no bytes", k, i)
				}
			case StepHost:
				if st.HostSeconds <= 0 {
					t.Fatalf("%v: host step %d has no duration", k, i)
				}
			}
			if st.MemActivity < 0 || st.MemActivity > 1 {
				t.Fatalf("%v: step %d mem activity %v", k, i, st.MemActivity)
			}
		}
	}
}

func TestScheduleScalesWithNELM(t *testing.T) {
	c := testConfig(DFTRMM)
	c.NELM = 5
	s5, _ := Build(c)
	c.NELM = 10
	s10, _ := Build(c)
	if len(s10.Steps) <= len(s5.Steps) {
		t.Fatal("schedule does not grow with NELM")
	}
	// Step count per iteration is constant for the plain SCF methods.
	d10 := len(s10.Steps) - 2 // minus setup/finalize
	d5 := len(s5.Steps) - 2
	if d10 != 2*d5 {
		t.Fatalf("steps per iteration not constant: %d vs %d", d5, d10)
	}
}

func TestScheduleScalesWithKPoints(t *testing.T) {
	c := testConfig(DFTRMM)
	d, err := parallel.Decompose(640, 16, 1, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c.Decomp = d
	s, _ := Build(c)
	base, _ := Build(testConfig(DFTRMM))
	if len(s.Steps) <= len(base.Steps) {
		t.Fatal("multi-k-point schedule not longer")
	}
}

func TestHSEContainsExchangeSteps(t *testing.T) {
	s, err := Build(testConfig(HSE))
	if err != nil {
		t.Fatal(err)
	}
	exch := 0
	for _, st := range s.Steps {
		if st.Kind == StepGPU && s.Kernels[st.Kernel].Class == gpu.ClassExchangeFFT {
			exch++
		}
	}
	if exch == 0 {
		t.Fatal("HSE schedule has no exchange steps")
	}
}

func TestHSEHeavierThanDFT(t *testing.T) {
	g := gpu.New(gpu.A100SXM40GB(), nil, 0, nil, gpu.DefaultVariability())
	dft, _ := Build(testConfig(DFTCG))
	hse, _ := Build(testConfig(HSE))
	if gpuSeconds(hse, g) < 5*gpuSeconds(dft, g) {
		t.Fatalf("HSE GPU time (%v) should dwarf plain DFT (%v)",
			gpuSeconds(hse, g), gpuSeconds(dft, g))
	}
}

func TestACFDTRHasThreePhases(t *testing.T) {
	s, err := Build(testConfig(ACFDTR))
	if err != nil {
		t.Fatal(err)
	}
	// The ground-state SCF runs FFTs on the GPUs, the exact
	// diagonalization is CPU-only, and the RPA sweep after it runs only
	// polarizability GEMMs.
	scfFFT, cpuSteps, rpaGEMM := 0, 0, 0
	for _, st := range s.Steps {
		switch {
		case st.Kind == StepCPU:
			cpuSteps++
			if st.CPU.Flops <= 0 {
				t.Fatal("CPU step has no work")
			}
		case st.Kind != StepGPU:
		case cpuSteps == 0 && s.Kernels[st.Kernel].Class == gpu.ClassFFT:
			scfFFT++
		case cpuSteps > 0 && s.Kernels[st.Kernel].Class == gpu.ClassGEMM:
			rpaGEMM++
		case cpuSteps > 0:
			t.Fatalf("RPA sweep runs a %s kernel", s.Kernels[st.Kernel].Class)
		}
	}
	if cpuSteps != 1 || scfFFT == 0 || rpaGEMM == 0 {
		t.Fatalf("ACFDTR phases: %d SCF FFT steps, %d CPU steps, %d RPA GEMM steps", scfFFT, cpuSteps, rpaGEMM)
	}
}

func TestVDWAddsDispersionKernel(t *testing.T) {
	s, _ := Build(testConfig(VDW))
	found := false
	for _, st := range s.Steps {
		if st.Kind == StepGPU && s.Kernels[st.Kernel].Class == gpu.ClassVdW {
			found = true
		}
	}
	if !found {
		t.Fatal("VDW schedule lacks the dispersion kernel")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := testConfig(DFTRMM)
	cases := []func(*Config){
		func(c *Config) { c.NBands = 0 },
		func(c *Config) { c.NPW = 0 },
		func(c *Config) { c.NPLWV = 0 },
		func(c *Config) { c.NElectrons = 0 },
		func(c *Config) { c.NIons = 0 },
		func(c *Config) { c.NELM = 0 },
		func(c *Config) { c.NSim = 0 },
		func(c *Config) { c.Decomp = parallel.Decomposition{} },
		func(c *Config) { c.NBands = c.NElectrons/2 - 10 },
		func(c *Config) { c.Kind = ACFDTR; c.NBandsExact = 0 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if _, err := Build(c); err == nil {
			t.Fatalf("case %d accepted invalid config", i)
		}
	}
}

func TestFromParams(t *testing.T) {
	cases := []struct {
		p    incar.Params
		want Kind
	}{
		{incar.Params{Algo: incar.AlgoVeryFast}, DFTRMM},
		{incar.Params{Algo: incar.AlgoNormal}, DFTBD},
		{incar.Params{Algo: incar.AlgoFast}, DFTBDRMM},
		{incar.Params{Algo: incar.AlgoDamped}, DFTCG},
		{incar.Params{Algo: incar.AlgoAll}, DFTCG},
		{incar.Params{Algo: incar.AlgoDamped, LHFCalc: true}, HSE},
		{incar.Params{Algo: incar.AlgoVeryFast, IVDW: 11}, VDW},
		{incar.Params{Algo: incar.AlgoACFDTR}, ACFDTR},
		{incar.Params{Algo: incar.AlgoACFDT}, ACFDTR},
		{incar.Params{Algo: incar.AlgoExact}, ACFDTR},
	}
	for _, c := range cases {
		got, err := FromParams(c.p)
		if err != nil || got != c.want {
			t.Fatalf("FromParams(%+v) = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	if _, err := FromParams(incar.Params{Algo: "Bogus"}); err == nil {
		t.Fatal("bogus algo accepted")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		DFTRMM: "dft_rmm", DFTBD: "dft_bd", DFTBDRMM: "dft_bdrmm",
		DFTCG: "dft_cg", VDW: "vdw", HSE: "hse", ACFDTR: "acfdtr",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should still render")
	}
}

func TestKernelBuildersScale(t *testing.T) {
	small := fftBatchKernel(10, 100000, 4, 100)
	big := fftBatchKernel(10, 800000, 4, 100)
	if big.Flops <= small.Flops || big.Bytes <= small.Bytes {
		t.Fatal("FFT kernel does not scale with grid")
	}
	model := gpu.DefaultEfficiency()
	p1, err := model.Resolve(gemmKernel(100, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := model.Resolve(gemmKernel(1000, 1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if p2.ComputeOcc <= p1.ComputeOcc {
		t.Fatal("GEMM occupancy does not grow with size")
	}
	if p2.ComputeOcc > model.Classes[gpu.ClassGEMM].Compute.Cap {
		t.Fatal("GEMM occupancy exceeds cap")
	}
}

func TestCountKind(t *testing.T) {
	s, _ := Build(testConfig(DFTRMM))
	if countKind(s, StepGPU) == 0 || countKind(s, StepComm) == 0 || countKind(s, StepHost) == 0 {
		t.Fatal("expected GPU, comm, and host steps")
	}
	if countKind(s, StepCPU) != 0 {
		t.Fatal("plain DFT should have no CPU-only steps")
	}
}

// gpuSeconds returns the summed uncapped-roofline estimate of a
// schedule's GPU step durations.
func gpuSeconds(s *Schedule, g *gpu.GPU) float64 {
	var t float64
	for _, st := range s.Steps {
		if st.Kind == StepGPU {
			t += g.UncappedDuration(s.Kernels[st.Kernel])
		}
	}
	return t
}

// countKind returns how many steps of a schedule have the given kind.
func countKind(s *Schedule, k StepKind) int {
	n := 0
	for _, st := range s.Steps {
		if st.Kind == k {
			n++
		}
	}
	return n
}

func TestMemoryPerGPU(t *testing.T) {
	dft := testConfig(DFTRMM)
	hse := testConfig(HSE)
	rpa := testConfig(ACFDTR)
	if dft.MemoryPerGPU() <= 0 {
		t.Fatal("zero footprint")
	}
	// Exchange keeps the occupied set resident: HSE needs much more
	// memory than plain DFT on the same system (the paper notes
	// higher-order methods "require more memory", §IV-D).
	if hse.MemoryPerGPU() < 2*dft.MemoryPerGPU() {
		t.Fatalf("HSE footprint %e not ≫ DFT %e", hse.MemoryPerGPU(), dft.MemoryPerGPU())
	}
	if rpa.MemoryPerGPU() <= dft.MemoryPerGPU() {
		t.Fatal("RPA footprint should exceed plain DFT")
	}
	// More ranks shrink the band block.
	d8, err := parallel.Decompose(640, 1, 8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide := dft
	wide.Decomp = d8
	if wide.MemoryPerGPU() >= dft.MemoryPerGPU() {
		t.Fatal("footprint did not shrink with ranks")
	}
}

// TestStepCountExact pins stepCount to the builders: every kind, with
// k-point groups holding one and several k-points and NELM below and
// above ACFDTR's 14-iteration cap, builds exactly stepCount(c) steps
// into a list allocated once at that size.
func TestStepCountExact(t *testing.T) {
	for _, kind := range Kinds() {
		for _, kpar := range []int{1, 2} {
			for _, nelm := range []int{1, 3, 20} {
				c := testConfig(kind)
				d, err := parallel.Decompose(640, 8, 2, 4, kpar)
				if err != nil {
					t.Fatal(err)
				}
				c.Decomp = d
				c.NELM = nelm
				s, err := Build(c)
				if err != nil {
					t.Fatal(err)
				}
				if len(s.Steps) != stepCount(c) || cap(s.Steps) != len(s.Steps) {
					t.Fatalf("%v kpar=%d nelm=%d: %d steps (cap %d), stepCount %d",
						kind, kpar, nelm, len(s.Steps), cap(s.Steps), stepCount(c))
				}
			}
		}
	}
}

// TestBuildIntoMatchesBuild builds every kind into one reused
// schedule, twice over: each schedule equals Build's, whatever the
// storage held before, and once the storage has grown to the largest
// schedule (after the first pass) every build appends into it.
func TestBuildIntoMatchesBuild(t *testing.T) {
	d, err := parallel.Decompose(640, 8, 2, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf Schedule
	for pass := 0; pass < 2; pass++ {
		for _, kind := range Kinds() {
			c := testConfig(kind)
			c.Decomp = d
			want, err := Build(c)
			if err != nil {
				t.Fatal(err)
			}
			steps, kernels := buf.Steps[:cap(buf.Steps)], buf.Kernels[:cap(buf.Kernels)]
			if err := BuildInto(&buf, c); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&buf, want) {
				t.Fatalf("pass %d %v: BuildInto differs from Build", pass, kind)
			}
			if pass == 1 && (&buf.Steps[0] != &steps[0] || &buf.Kernels[0] != &kernels[0]) {
				t.Fatalf("%v: BuildInto reallocated storage that held every schedule", kind)
			}
		}
	}
}

// TestBuildIntoWarmAllocs pins the arena claim: into storage that has
// held the schedule, a build allocates nothing, however many steps
// the schedule has.
func TestBuildIntoWarmAllocs(t *testing.T) {
	for _, kind := range Kinds() {
		for _, nelm := range []int{3, 30} {
			c := testConfig(kind)
			c.NELM = nelm
			var s Schedule
			if err := BuildInto(&s, c); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() {
				if err := BuildInto(&s, c); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("%v nelm=%d (%d steps): warm BuildInto allocates %v objects, want 0", kind, nelm, len(s.Steps), allocs)
			}
		}
	}
}

// TestInternKeysEveryKernelField: the builder's descriptor table
// separates two kernels that differ in any one field, and only those.
// The cases cover every field of gpu.Kernel, so a field added later
// fails here until it gets a case.
func TestInternKeysEveryKernelField(t *testing.T) {
	cases := []struct {
		name    string
		perturb func(k *gpu.Kernel)
	}{
		{"Class", func(k *gpu.Kernel) { k.Class = gpu.ClassStencil }},
		{"Flops", func(k *gpu.Kernel) { k.Flops *= 1.5 }},
		{"Bytes", func(k *gpu.Kernel) { k.Bytes *= 1.5 }},
		{"Axes", func(k *gpu.Kernel) { k.Axes[2] = k.Axes[2]*0.5 + 1 }},
		{"Launches", func(k *gpu.Kernel) { k.Launches += 3 }},
		{"LatencyScale", func(k *gpu.Kernel) { k.LatencyScale = 2 }},
		{"Entropy", func(k *gpu.Kernel) { k.Entropy = 0.9 }},
	}
	if n := reflect.TypeOf(gpu.Kernel{}).NumField(); n != len(cases) {
		t.Fatalf("gpu.Kernel has %d fields, the test perturbs %d", n, len(cases))
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := gemmKernel(640, 160, 33280)
			other := k
			tc.perturb(&other)
			var b builder
			for _, kern := range []gpu.Kernel{k, other, k, other, k} {
				b.gpuStep(kern, memGEMM)
			}
			if len(b.kernels) != 2 || b.kernels[0] != k || b.kernels[1] != other {
				t.Fatalf("table %+v, want the two kernels in first-use order", b.kernels)
			}
			for i, st := range b.steps {
				if want := int32(i % 2); st.Kernel != want {
					t.Fatalf("step %d runs descriptor %d, want %d", i, st.Kernel, want)
				}
			}
		})
	}
}
