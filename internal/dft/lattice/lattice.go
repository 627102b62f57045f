// Package lattice provides the crystal-structure layer of the
// workload model: structures with ion/electron counts and cell
// dimensions, the silicon-supercell family used in the paper's
// controlled experiments (§IV), and the derivation of computational
// sizes from physical ones — FFT grids, dense grid point counts
// (NPLWV), plane waves per band, and default band counts (NBANDS).
//
// The derivations are calibrated against Table I: the Si256 supercell
// (21.72 Å cube) gets an 80×80×80 grid (NPLWV 512000) and 640 bands
// for 1020 electrons, exactly as published.
package lattice

import (
	"fmt"
	"math"
)

// Structure describes a periodic atomic system.
type Structure struct {
	Name      string
	Formula   string  // human-readable composition, e.g. "Si255"
	NumIons   int     // atoms in the cell
	Electrons int     // valence electrons (what DFT actually solves for)
	A, B, C   float64 // orthorhombic cell edges, Å
}

// Validate checks structural invariants.
func (s Structure) Validate() error {
	if s.NumIons <= 0 {
		return fmt.Errorf("lattice: %s has %d ions", s.Name, s.NumIons)
	}
	if s.Electrons <= 0 {
		return fmt.Errorf("lattice: %s has %d electrons", s.Name, s.Electrons)
	}
	if s.A <= 0 || s.B <= 0 || s.C <= 0 {
		return fmt.Errorf("lattice: %s has non-positive cell edge", s.Name)
	}
	return nil
}

// SiLatticeConst is the conventional silicon lattice constant in Å.
const SiLatticeConst = 5.431

// SiEncutDefault is the default plane-wave cutoff of the silicon
// POTCAR (ENMAX), in eV.
const SiEncutDefault = 245.0

// SiliconSupercell builds an n-atom silicon supercell. The cell is the
// cube holding n atoms at bulk silicon density (edge
// (n/8)^(1/3)·a₀), which is how the paper's §IV size-sweep supercells
// scale: every size keeps the same atomic density, so computational
// size grows strictly with atom count.
func SiliconSupercell(nAtoms int) (Structure, error) {
	if nAtoms < 2 || nAtoms%2 != 0 {
		return Structure{}, fmt.Errorf("lattice: silicon supercell needs an even atom count ≥ 2, got %d", nAtoms)
	}
	edge := SiLatticeConst * math.Cbrt(float64(nAtoms)/8)
	return Structure{
		Name:      fmt.Sprintf("Si%d", nAtoms),
		Formula:   fmt.Sprintf("Si%d", nAtoms),
		NumIons:   nAtoms,
		Electrons: 4 * nAtoms, // 4 valence electrons per Si
		A:         edge,
		B:         edge,
		C:         edge,
	}, nil
}

// FFTGrid derives the dense FFT grid for a structure at the given
// plane-wave cutoff (eV): each dimension must resolve the
// wavefunction cutoff sphere with the precision-dependent wrap-around
// margin, then rounds up to an FFT-friendly size (prime factors in
// {2, 3, 5, 7}).
//
// Points per edge = factor·Gcut·a/π with Gcut = sqrt(2·m·ENCUT)/ħ
// (0.5123·sqrt(E[eV]) in Å⁻¹) and factor 1.40 at PREC=Normal
// (VASP's 3/2 grid with friendly rounding). This reproduces Table I:
// a 21.72 Å silicon cell at ENCUT=245 eV gets an 80-point edge.
func FFTGrid(s Structure, encut float64, prec string) ([3]int, error) {
	if err := s.Validate(); err != nil {
		return [3]int{}, err
	}
	if encut <= 0 {
		return [3]int{}, fmt.Errorf("lattice: non-positive ENCUT %v", encut)
	}
	gcut := 0.5123 * math.Sqrt(encut)
	var factor float64
	switch prec {
	case "", "Normal", "normal", "Med", "Medium":
		factor = 1.40
	case "Accurate", "accurate", "High", "high":
		factor = 1.87 // full 2·Gcut grid, no wrap-around
	case "Low", "low":
		factor = 1.05
	default:
		return [3]int{}, fmt.Errorf("lattice: unknown PREC %q", prec)
	}
	var grid [3]int
	for i, a := range []float64{s.A, s.B, s.C} {
		raw := factor * gcut * a / math.Pi
		grid[i] = fftFriendly(int(math.Ceil(raw - 1e-9)))
	}
	return grid, nil
}

// fftFriendly rounds n up to the next integer whose prime factors are
// all in {2, 3, 5, 7}.
func fftFriendly(n int) int {
	if n < 2 {
		return 2
	}
	for m := n; ; m++ {
		k := m
		for _, p := range []int{2, 3, 5, 7} {
			for k%p == 0 {
				k /= p
			}
		}
		if k == 1 {
			return m
		}
	}
}

// NPLWV returns the dense grid point count for a grid.
func NPLWV(grid [3]int) int { return grid[0] * grid[1] * grid[2] }

// PlaneWavesPerBand estimates the number of plane-wave coefficients in
// one orbital: the wavefunction cutoff sphere (radius Gcut) holds
// (4π/3)·Gcut³ / ((2π)³/V) vectors — about 1/16 of the dense NPLWV
// grid at PREC=Normal. VASP reports this as the "number of plane
// waves" per band.
func PlaneWavesPerBand(nplwv int) int {
	npw := int(float64(nplwv) * 0.065)
	if npw < 1 {
		npw = 1
	}
	return npw
}

// DefaultNBands returns VASP's default band count: nelect/2 + nions/2,
// rounded up to a multiple of `granularity` (the paper's inputs round
// to rank-count multiples; pass 8 for a 2-node default).
func DefaultNBands(electrons, ions, granularity int) int {
	if granularity <= 0 {
		granularity = 1
	}
	nb := electrons/2 + ions/2
	if nb < 1 {
		nb = 1
	}
	if r := nb % granularity; r != 0 {
		nb += granularity - r
	}
	return nb
}
