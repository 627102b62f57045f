package workloads

import (
	"fmt"
	"strings"
	"testing"

	"vasppower/internal/dft/incar"
	"vasppower/internal/dft/method"
	"vasppower/internal/hw/platform"
)

func TestTableIMatchesPaper(t *testing.T) {
	suite := TableI()
	if len(suite) != 7 {
		t.Fatalf("suite size = %d, want 7", len(suite))
	}
	// Published Table I values.
	want := map[string]struct {
		electrons, ions, nbands, nplwv int
	}{
		"Si256_hse":    {1020, 255, 640, 512000},
		"B.hR105_hse":  {315, 105, 256, 110592},
		"PdO4":         {3288, 348, 2048, 518400},
		"PdO2":         {1644, 174, 1024, 259200},
		"GaAsBi-64":    {266, 64, 192, 343000},
		"CuC_vdw":      {1064, 98, 640, 1029000},
		"Si128_acfdtr": {512, 128, 320, 216000},
	}
	for _, b := range suite {
		if err := b.Validate(); err != nil {
			t.Fatal(err)
		}
		w, ok := want[b.Name]
		if !ok {
			t.Fatalf("unexpected benchmark %s", b.Name)
		}
		if b.Structure.Electrons != w.electrons || b.Structure.NumIons != w.ions {
			t.Fatalf("%s: electrons/ions %d/%d, want %d/%d",
				b.Name, b.Structure.Electrons, b.Structure.NumIons, w.electrons, w.ions)
		}
		if b.NBands != w.nbands {
			t.Fatalf("%s: NBANDS %d, want %d", b.Name, b.NBands, w.nbands)
		}
		if b.NPLWV() != w.nplwv {
			t.Fatalf("%s: NPLWV %d, want %d", b.Name, b.NPLWV(), w.nplwv)
		}
	}
}

func TestByNameAndNames(t *testing.T) {
	if _, ok := ByName("Si256_hse"); !ok {
		t.Fatal("Si256_hse missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown benchmark found")
	}
	names := Names()
	if len(names) != 7 || names[0] != "Si256_hse" {
		t.Fatalf("Names = %v", names)
	}
}

func TestConfigResolvesDecomposition(t *testing.T) {
	b, _ := ByName("GaAsBi-64")
	cfg, err := b.Config(platform.Platform{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// KPAR=2 on 4 ranks: 2 ranks per group, 96 bands each.
	if cfg.Decomp.KPar != 2 || cfg.Decomp.BandsPerRank != 96 {
		t.Fatalf("GaAsBi decomposition wrong: %+v", cfg.Decomp)
	}
	if cfg.NPW != 22295 {
		t.Fatalf("NPW = %d", cfg.NPW)
	}
}

func TestConfigKParFallback(t *testing.T) {
	// 3 nodes → 12 ranks; KPAR=2 divides 12, fine. Construct a case
	// where KPAR cannot divide ranks: KPAR=2 with... all rank counts
	// are multiples of 4, so craft a benchmark with KPAR=3.
	b, _ := ByName("GaAsBi-64")
	b.KPar = 3 // does not divide 4 ranks
	cfg, err := b.Config(platform.Platform{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Decomp.KPar != 1 {
		t.Fatalf("expected KPAR fallback to 1, got %d", cfg.Decomp.KPar)
	}
}

func TestConfigTooManyNodes(t *testing.T) {
	b, _ := ByName("GaAsBi-64") // 192 bands, KPAR 2
	// 128 nodes → 512 ranks → 256 per KPAR group > 192 bands: no
	// valid band distribution.
	if _, err := b.Config(platform.Platform{}, 128); err == nil {
		t.Fatal("absurd node count accepted")
	}
}

func TestINCARRoundTrip(t *testing.T) {
	for _, b := range TableI() {
		f, err := incar.Parse(incarText(b))
		if err != nil {
			t.Fatalf("%s: INCAR does not parse: %v", b.Name, err)
		}
		p, err := f.TypedParams()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		kind, err := method.FromParams(p)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if kind != b.Method {
			t.Fatalf("%s: INCAR round-trips to %v, want %v", b.Name, kind, b.Method)
		}
		if p.NBands != b.NBands || p.NELM != b.NELM {
			t.Fatalf("%s: INCAR params drifted", b.Name)
		}
	}
}

func TestKPOINTSRoundTrip(t *testing.T) {
	for _, b := range TableI() {
		kp, err := incar.ParseKPoints(kpointsText(b))
		if err != nil {
			t.Fatalf("%s: KPOINTS does not parse: %v", b.Name, err)
		}
		if kp.Mesh != b.KPoints.Mesh {
			t.Fatalf("%s: mesh drifted: %v vs %v", b.Name, kp.Mesh, b.KPoints.Mesh)
		}
	}
}

func TestSiliconBenchmark(t *testing.T) {
	for _, kind := range method.Kinds() {
		b, err := SiliconBenchmark(128, kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !strings.Contains(b.Name, "Si128") {
			t.Fatalf("%v: name %q", kind, b.Name)
		}
		if _, err := b.Config(platform.Platform{}, 1); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	if _, err := SiliconBenchmark(7, method.DFTRMM); err == nil {
		t.Fatal("odd atom count accepted")
	}
}

func TestBenchmarkValidateRejectsBadDefs(t *testing.T) {
	b, _ := ByName("PdO2")
	cases := []func(*Benchmark){
		func(b *Benchmark) { b.NELM = 0 },
		func(b *Benchmark) { b.NBands = 10 },
		func(b *Benchmark) { b.FFTGrid = [3]int{0, 0, 0} },
		func(b *Benchmark) { b.KPar = 0 },
		func(b *Benchmark) { b.KPar = 5 },
		func(b *Benchmark) { b.OptimalNodes = 0 },
		func(b *Benchmark) { b.Structure.NumIons = 0 },
	}
	for i, mutate := range cases {
		bb := b
		mutate(&bb)
		if err := bb.Validate(); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	acfdtr, _ := ByName("Si128_acfdtr")
	acfdtr.NBandsExact = 0
	if err := acfdtr.Validate(); err == nil {
		t.Fatal("ACFDTR without NBANDSEXACT accepted")
	}
}

func TestConfigRejectsMemoryOverflow(t *testing.T) {
	// A 4096-atom HSE supercell keeps ~8192 occupied orbitals resident
	// on every GPU: far beyond 40 GB at any node count that the band
	// distribution allows.
	b, err := SiliconBenchmark(4096, method.HSE)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Config(platform.Platform{}, 1); err == nil {
		t.Fatal("HSE Si4096 fit in 40 GB?")
	}
	// The same cell under plain DFT fits (bands are distributed).
	bd, err := SiliconBenchmark(4096, method.DFTBD)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.Config(platform.Platform{}, 1); err != nil {
		t.Fatalf("DFT Si4096 should fit: %v", err)
	}
	// All Table I benchmarks fit at their optimal node counts (they
	// ran on the real machine).
	for _, tb := range TableI() {
		if _, err := tb.Config(platform.Platform{}, tb.OptimalNodes); err != nil {
			t.Fatalf("%s does not fit: %v", tb.Name, err)
		}
	}
}

// incarText renders a benchmark as INCAR text (round-trippable through
// the incar parser).
func incarText(b Benchmark) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SYSTEM = %s\n", b.Name)
	algo := "Normal"
	switch b.Method {
	case method.DFTRMM, method.VDW:
		algo = "VeryFast"
	case method.DFTBDRMM:
		algo = "Fast"
	case method.DFTCG, method.HSE:
		algo = "Damped"
	case method.ACFDTR:
		algo = "ACFDTR"
	}
	fmt.Fprintf(&sb, "ALGO = %s\n", algo)
	fmt.Fprintf(&sb, "NELM = %d\n", b.NELM)
	fmt.Fprintf(&sb, "NBANDS = %d\n", b.NBands)
	fmt.Fprintf(&sb, "ENCUT = %.1f\n", b.ENCUT)
	fmt.Fprintf(&sb, "KPAR = %d\n", b.KPar)
	if b.Method == method.HSE {
		sb.WriteString("LHFCALC = .TRUE.\nHFSCREEN = 0.2\n")
	}
	if b.Method == method.VDW {
		sb.WriteString("IVDW = 11\n")
	}
	if b.NBandsExact > 0 {
		fmt.Fprintf(&sb, "NBANDSEXACT = %d\n", b.NBandsExact)
	}
	return sb.String()
}

// kpointsText renders a benchmark's KPOINTS file.
func kpointsText(b Benchmark) string {
	return fmt.Sprintf("%s\n0\n%s\n%d %d %d\n0 0 0\n",
		b.Name, b.KPoints.Scheme, b.KPoints.Mesh[0], b.KPoints.Mesh[1], b.KPoints.Mesh[2])
}
