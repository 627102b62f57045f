package incar

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// KPoints is a parsed KPOINTS file describing an automatic k-point
// mesh (the only flavor the benchmarks use).
type KPoints struct {
	Comment string
	Scheme  string // "Gamma" or "Monkhorst-Pack"
	Mesh    [3]int
	Shift   [3]float64
}

// Count returns the raw mesh point count Nx·Ny·Nz. (VASP reduces this
// by symmetry; Reduced applies the approximation used in our cost
// model.)
func (k KPoints) Count() int { return k.Mesh[0] * k.Mesh[1] * k.Mesh[2] }

// Reduced estimates the number of irreducible k-points. For a
// Γ-centered mesh on a reasonably symmetric cell roughly 1/4 of the
// raw mesh survives (with a floor of 1); Γ-only meshes return 1.
// The benchmarks' GaAsBi 4×4×4 mesh reduces to ≈ 16 points, and the
// 3×3×1 CuC mesh to ≈ 5 — this estimate lands close enough for the
// load model.
func (k KPoints) Reduced() int {
	n := k.Count()
	if n <= 1 {
		return 1
	}
	r := (n + 3) / 4
	if r < 1 {
		r = 1
	}
	return r
}

// ParseKPoints reads KPOINTS text:
//
//	line 1: comment
//	line 2: 0 (automatic generation)
//	line 3: Gamma | Monkhorst-Pack (first letter decides)
//	line 4: Nx Ny Nz
//	line 5: optional shift sx sy sz
func ParseKPoints(text string) (KPoints, error) {
	var kp KPoints
	sc := bufio.NewScanner(strings.NewReader(text))
	var lines []string
	for sc.Scan() {
		lines = append(lines, strings.TrimSpace(sc.Text()))
	}
	if len(lines) < 4 {
		return kp, fmt.Errorf("kpoints: need at least 4 lines, got %d", len(lines))
	}
	kp.Comment = lines[0]
	nAuto, err := strconv.Atoi(firstField(lines[1]))
	if err != nil || nAuto != 0 {
		return kp, fmt.Errorf("kpoints: line 2 must be 0 (automatic mesh), got %q", lines[1])
	}
	switch {
	case lines[2] == "":
		return kp, fmt.Errorf("kpoints: empty scheme line")
	case strings.HasPrefix(strings.ToUpper(lines[2]), "G"):
		kp.Scheme = "Gamma"
	case strings.HasPrefix(strings.ToUpper(lines[2]), "M"):
		kp.Scheme = "Monkhorst-Pack"
	default:
		return kp, fmt.Errorf("kpoints: unknown scheme %q", lines[2])
	}
	mesh := strings.Fields(lines[3])
	if len(mesh) < 3 {
		return kp, fmt.Errorf("kpoints: mesh line %q needs 3 integers", lines[3])
	}
	for i := 0; i < 3; i++ {
		v, err := strconv.Atoi(mesh[i])
		if err != nil || v <= 0 {
			return kp, fmt.Errorf("kpoints: bad mesh dimension %q", mesh[i])
		}
		kp.Mesh[i] = v
	}
	if len(lines) >= 5 && lines[4] != "" {
		shift := strings.Fields(lines[4])
		for i := 0; i < 3 && i < len(shift); i++ {
			v, err := strconv.ParseFloat(shift[i], 64)
			if err != nil {
				return kp, fmt.Errorf("kpoints: bad shift %q", shift[i])
			}
			kp.Shift[i] = v
		}
	}
	return kp, nil
}

// GammaOnly returns the 1×1×1 Γ-point mesh.
func GammaOnly() KPoints {
	return KPoints{Comment: "gamma only", Scheme: "Gamma", Mesh: [3]int{1, 1, 1}}
}

// Mesh returns a Γ-centered mesh of the given dimensions.
func Mesh(nx, ny, nz int) KPoints {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic(fmt.Sprintf("kpoints: invalid mesh %dx%dx%d", nx, ny, nz))
	}
	return KPoints{Comment: "mesh", Scheme: "Gamma", Mesh: [3]int{nx, ny, nz}}
}
