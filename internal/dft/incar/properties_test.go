package incar

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

// Property: any typed Params we can render as INCAR text parses back
// to the same values (print/parse round trip).
func TestParamsRoundTripProperty(t *testing.T) {
	algos := []Algo{AlgoNormal, AlgoVeryFast, AlgoFast, AlgoDamped, AlgoAll, AlgoACFDTR}
	f := func(nelmRaw, nbandsRaw, kparRaw, algoRaw uint8, hf bool, encutRaw uint16) bool {
		p := Defaults()
		p.System = "round trip"
		p.Algo = algos[int(algoRaw)%len(algos)]
		p.NELM = 1 + int(nelmRaw)%200
		p.NBands = int(nbandsRaw) * 8
		p.KPar = 1 + int(kparRaw)%8
		p.LHFCalc = hf
		p.ENCUT = float64(encutRaw%1000) + 100
		var sb strings.Builder
		fmt.Fprintf(&sb, "SYSTEM = %s\n", p.System)
		fmt.Fprintf(&sb, "ALGO = %s ; NELM = %d\n", p.Algo, p.NELM)
		if p.NBands > 0 {
			fmt.Fprintf(&sb, "NBANDS = %d\n", p.NBands)
		}
		fmt.Fprintf(&sb, "KPAR = %d\nENCUT = %.1f\n", p.KPar, p.ENCUT)
		if p.LHFCalc {
			sb.WriteString("LHFCALC = .TRUE.\n")
		}
		file, err := Parse(sb.String())
		if err != nil {
			return false
		}
		q, err := file.TypedParams()
		if err != nil {
			return false
		}
		return q.System == p.System && q.Algo == p.Algo && q.NELM == p.NELM &&
			q.NBands == p.NBands && q.KPar == p.KPar &&
			q.LHFCalc == p.LHFCalc && q.ENCUT == p.ENCUT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: the parser never panics on arbitrary input; it either
// errors or returns a consistent File.
func TestParseNeverPanicsProperty(t *testing.T) {
	f := func(text string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		file, err := Parse(text)
		if err != nil {
			return true
		}
		// Every reported tag must be retrievable.
		for tag := range file.tags {
			if !file.Has(tag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: KPOINTS meshes round trip through render/parse.
func TestKPointsRoundTripProperty(t *testing.T) {
	f := func(nx, ny, nz uint8) bool {
		mesh := Mesh(1+int(nx)%12, 1+int(ny)%12, 1+int(nz)%12)
		text := fmt.Sprintf("c\n0\nGamma\n%d %d %d\n0 0 0\n",
			mesh.Mesh[0], mesh.Mesh[1], mesh.Mesh[2])
		kp, err := ParseKPoints(text)
		if err != nil {
			return false
		}
		return kp.Mesh == mesh.Mesh && kp.Count() == mesh.Count() &&
			kp.Reduced() >= 1 && kp.Reduced() <= kp.Count()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
