package method

import (
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
		if s.Name != k.String() {
			t.Fatalf("%v: name %q", k, s.Name)
		}
		// Every GPU step carries a valid kernel.
		for _, st := range s.Steps {
			switch st.Kind {
			case StepGPU:
				if err := st.GPU.Validate(); err != nil {
					t.Fatalf("%v: step %q: %v", k, st.Label, err)
				}
			case StepComm:
				if st.Comm.Bytes <= 0 {
					t.Fatalf("%v: comm step %q has no bytes", k, st.Label)
				}
			case StepHost:
				if st.HostSeconds <= 0 {
					t.Fatalf("%v: host step %q has no duration", k, st.Label)
				}
			}
			if st.MemActivity < 0 || st.MemActivity > 1 {
				t.Fatalf("%v: step %q mem activity %v", k, st.Label, st.MemActivity)
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
		if st.Kind == StepGPU && containsSub(st.Label, "exch") {
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
	if hse.GPUSeconds(g) < 5*dft.GPUSeconds(g) {
		t.Fatalf("HSE GPU time (%v) should dwarf plain DFT (%v)",
			hse.GPUSeconds(g), dft.GPUSeconds(g))
	}
}

func TestACFDTRHasThreePhases(t *testing.T) {
	s, err := Build(testConfig(ACFDTR))
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	cpuSteps := 0
	for _, st := range s.Steps {
		phases[st.Phase] = true
		if st.Kind == StepCPU {
			cpuSteps++
			if st.CPU.Flops <= 0 {
				t.Fatal("CPU step has no work")
			}
		}
	}
	for _, want := range []string{"scf", "exact-diag", "rpa"} {
		if !phases[want] {
			t.Fatalf("ACFDTR missing phase %q (have %v)", want, phases)
		}
	}
	if cpuSteps == 0 {
		t.Fatal("ACFDTR has no CPU-only exact-diagonalization step")
	}
}

func TestVDWAddsDispersionKernel(t *testing.T) {
	s, _ := Build(testConfig(VDW))
	found := false
	for _, st := range s.Steps {
		if st.Kind == StepGPU && st.GPU.Name == "vdw-dispersion" {
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
	small := fftBatchKernel("s", 10, 100000, 4, 100)
	big := fftBatchKernel("b", 10, 800000, 4, 100)
	if big.Flops <= small.Flops || big.Bytes <= small.Bytes {
		t.Fatal("FFT kernel does not scale with grid")
	}
	model := gpu.DefaultEfficiency()
	p1, err := model.Resolve(gemmKernel("g1", 100, 100, 100))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := model.Resolve(gemmKernel("g2", 1000, 1000, 1000))
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
	if s.CountKind(StepGPU) == 0 || s.CountKind(StepComm) == 0 || s.CountKind(StepHost) == 0 {
		t.Fatal("expected GPU, comm, and host steps")
	}
	if s.CountKind(StepCPU) != 0 {
		t.Fatal("plain DFT should have no CPU-only steps")
	}
}

func containsSub(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
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
