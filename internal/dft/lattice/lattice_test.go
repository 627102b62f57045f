package lattice

import (
	"math"
	"testing"
)

func TestSiliconSupercellBasics(t *testing.T) {
	s, err := SiliconSupercell(256)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumIons != 256 || s.Electrons != 1024 {
		t.Fatalf("Si256: %d ions, %d electrons", s.NumIons, s.Electrons)
	}
	// Bulk density: cube edge (256/8)^(1/3)·5.431 ≈ 17.24 Å.
	if math.Abs(s.A-17.243) > 0.01 || s.A != s.B || s.B != s.C {
		t.Fatalf("Si256 cell = %v×%v×%v", s.A, s.B, s.C)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSiliconSupercellDensityInvariant(t *testing.T) {
	// Atoms per Å³ must be constant across the family.
	ref, _ := SiliconSupercell(64)
	refDensity := float64(ref.NumIons) / (ref.A * ref.B * ref.C)
	for _, n := range []int{8, 32, 128, 512, 2048, 4096} {
		s, err := SiliconSupercell(n)
		if err != nil {
			t.Fatal(err)
		}
		d := float64(s.NumIons) / (s.A * s.B * s.C)
		if math.Abs(d-refDensity)/refDensity > 1e-9 {
			t.Fatalf("Si%d density %v differs from reference %v", n, d, refDensity)
		}
	}
}

func TestSiliconSupercellRejectsBadCounts(t *testing.T) {
	for _, n := range []int{0, -8, 3, 7} {
		if _, err := SiliconSupercell(n); err == nil {
			t.Fatalf("SiliconSupercell(%d) accepted", n)
		}
	}
}

func TestFFTGridMatchesTableISi256(t *testing.T) {
	// Si256_hse: 80×80×80 grid, NPLWV 512000 at the benchmark cutoff
	// (the vacancy leaves the cell unchanged).
	s, _ := SiliconSupercell(256)
	grid, err := FFTGrid(s, 410, "Normal")
	if err != nil {
		t.Fatal(err)
	}
	if grid != [3]int{80, 80, 80} {
		t.Fatalf("Si256 grid = %v, want 80³", grid)
	}
	if NPLWV(grid) != 512000 {
		t.Fatalf("NPLWV = %d, want 512000", NPLWV(grid))
	}
}

func TestFFTGridMatchesTableISi128(t *testing.T) {
	// Si128_acfdtr: 60×60×60 grid, NPLWV 216000.
	s, _ := SiliconSupercell(128)
	grid, err := FFTGrid(s, 367, "Normal")
	if err != nil {
		t.Fatal(err)
	}
	if grid != [3]int{60, 60, 60} {
		t.Fatalf("Si128 grid = %v, want 60³", grid)
	}
	if NPLWV(grid) != 216000 {
		t.Fatalf("NPLWV = %d, want 216000", NPLWV(grid))
	}
}

func TestFFTGridGrowsWithSizeAndCutoff(t *testing.T) {
	small, _ := SiliconSupercell(64)
	big, _ := SiliconSupercell(512)
	gSmall, _ := FFTGrid(small, 245, "Normal")
	gBig, _ := FFTGrid(big, 245, "Normal")
	if NPLWV(gBig) <= NPLWV(gSmall) {
		t.Fatal("grid does not grow with system size")
	}
	gLow, _ := FFTGrid(big, 245, "Normal")
	gHigh, _ := FFTGrid(big, 400, "Normal")
	if NPLWV(gHigh) <= NPLWV(gLow) {
		t.Fatal("grid does not grow with cutoff")
	}
	gAcc, _ := FFTGrid(big, 245, "Accurate")
	if NPLWV(gAcc) <= NPLWV(gLow) {
		t.Fatal("Accurate grid not denser than Normal")
	}
}

func TestFFTGridErrors(t *testing.T) {
	s, _ := SiliconSupercell(64)
	if _, err := FFTGrid(s, 0, "Normal"); err == nil {
		t.Fatal("zero ENCUT accepted")
	}
	if _, err := FFTGrid(s, 245, "Bogus"); err == nil {
		t.Fatal("unknown PREC accepted")
	}
	if _, err := FFTGrid(Structure{}, 245, "Normal"); err == nil {
		t.Fatal("invalid structure accepted")
	}
}

func TestFFTFriendly(t *testing.T) {
	cases := map[int]int{
		1: 2, 2: 2, 59: 60, 60: 60, 61: 63, 79: 80, 80: 80,
		97: 98, 121: 125, 127: 128,
	}
	for in, want := range cases {
		if got := fftFriendly(in); got != want {
			t.Fatalf("fftFriendly(%d) = %d, want %d", in, got, want)
		}
	}
	// All results factor into {2,3,5,7}.
	for n := 2; n < 500; n++ {
		v := fftFriendly(n)
		if v < n {
			t.Fatalf("fftFriendly(%d) = %d rounds down", n, v)
		}
		k := v
		for _, p := range []int{2, 3, 5, 7} {
			for k%p == 0 {
				k /= p
			}
		}
		if k != 1 {
			t.Fatalf("fftFriendly(%d) = %d is not 7-smooth", n, v)
		}
	}
}

func TestPlaneWavesPerBand(t *testing.T) {
	if got := PlaneWavesPerBand(512000); got != 33280 {
		t.Fatalf("npw(512000) = %d, want 33280", got)
	}
	if got := PlaneWavesPerBand(1); got != 1 {
		t.Fatalf("npw floor broken: %d", got)
	}
}

func TestDefaultNBands(t *testing.T) {
	// Si256_hse: 1020 electrons, 255 ions → 510+127 = 637 → 640 at
	// granularity 8 (Table I's NBANDS).
	if got := DefaultNBands(1020, 255, 8); got != 640 {
		t.Fatalf("NBANDS(Si256_hse) = %d, want 640", got)
	}
	if got := DefaultNBands(4, 1, 1); got != 2 {
		t.Fatalf("NBANDS small = %d", got)
	}
	if got := DefaultNBands(0, 0, 8); got != 8 {
		t.Fatalf("NBANDS floor = %d", got)
	}
	// Scales ~2.5× atoms for silicon.
	for _, n := range []int{64, 256, 1024} {
		got := DefaultNBands(4*n, n, 8)
		want := 2.5 * float64(n)
		if math.Abs(float64(got)-want) > 10 {
			t.Fatalf("NBANDS(Si%d) = %d, want ≈ %v", n, got, want)
		}
	}
}

func TestStructureValidate(t *testing.T) {
	bad := []Structure{
		{Name: "noions", Electrons: 1, A: 1, B: 1, C: 1},
		{Name: "noelec", NumIons: 1, A: 1, B: 1, C: 1},
		{Name: "nocell", NumIons: 1, Electrons: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("structure %q should be invalid", s.Name)
		}
	}
}
