package incar

import (
	"strings"
	"testing"
)

const sampleINCAR = `
SYSTEM = Si256 supercell with vacancy  ! HSE benchmark
! electronic minimization
ALGO   = Damped
NELM   = 41 ; NELMDL = 0
NBANDS = 640
LHFCALC = .TRUE.
HFSCREEN = 0.2
ENCUT = 245.0
KPAR = 1
NSIM = 4
# precision
PREC = Normal
TIME = 0.4
`

func TestParseBasic(t *testing.T) {
	f, err := Parse(sampleINCAR)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.String("SYSTEM", ""); got != "Si256 supercell with vacancy" {
		t.Fatalf("SYSTEM = %q", got)
	}
	if n, _ := f.Int("NBANDS", 0); n != 640 {
		t.Fatalf("NBANDS = %d", n)
	}
	if n, _ := f.Int("NELM", 0); n != 41 {
		t.Fatalf("NELM = %d (semicolon assignment broken)", n)
	}
	if b, _ := f.Bool("LHFCALC", false); !b {
		t.Fatal("LHFCALC not parsed")
	}
	if v, _ := f.Float("HFSCREEN", 0); v != 0.2 {
		t.Fatalf("HFSCREEN = %v", v)
	}
	if !f.Has("time") { // case-insensitive
		t.Fatal("case-insensitive Has failed")
	}
}

func TestParseCommentsAndBlankLines(t *testing.T) {
	f, err := Parse("\n! whole line comment\n# another\nNELM = 10 # trailing\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := f.Int("NELM", 0); n != 10 {
		t.Fatalf("NELM = %d", n)
	}
	if len(f.tags) != 1 {
		t.Fatalf("tags = %v", f.tags)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse("THIS IS NOT AN ASSIGNMENT"); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Parse(" = 5"); err == nil {
		t.Fatal("empty tag accepted")
	}
}

func TestTypeErrors(t *testing.T) {
	f, _ := Parse("NELM = abc\nENCUT = xyz\nLHFCALC = maybe")
	if _, err := f.Int("NELM", 0); err == nil {
		t.Fatal("bad int accepted")
	}
	if _, err := f.Float("ENCUT", 0); err == nil {
		t.Fatal("bad float accepted")
	}
	if _, err := f.Bool("LHFCALC", false); err == nil {
		t.Fatal("bad bool accepted")
	}
}

func TestFortranNumericForms(t *testing.T) {
	f, _ := Parse("EDIFF = 1.0D-6\nLREAL = T\nLWAVE = .FALSE.")
	if v, err := f.Float("EDIFF", 0); err != nil || v != 1e-6 {
		t.Fatalf("EDIFF = %v, %v", v, err)
	}
	if b, err := f.Bool("LREAL", false); err != nil || !b {
		t.Fatalf("LREAL = %v, %v", b, err)
	}
	if b, err := f.Bool("LWAVE", true); err != nil || b {
		t.Fatalf("LWAVE = %v, %v", b, err)
	}
}

func TestDefaultsWhenAbsent(t *testing.T) {
	f, _ := Parse("SYSTEM = empty")
	if n, _ := f.Int("NBANDS", 123); n != 123 {
		t.Fatal("default not honored")
	}
	p, err := f.TypedParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.Algo != AlgoNormal || p.NELM != 60 || p.KPar != 1 {
		t.Fatalf("defaults wrong: %+v", p)
	}
}

func TestTypedParamsFull(t *testing.T) {
	f, err := Parse(sampleINCAR)
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.TypedParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.Algo != AlgoDamped {
		t.Fatalf("Algo = %v", p.Algo)
	}
	if !p.LHFCalc || p.NBands != 640 || p.NELM != 41 || p.ENCUT != 245 {
		t.Fatalf("params wrong: %+v", p)
	}
}

func TestNegativeNELMDLNormalized(t *testing.T) {
	f, _ := Parse("NELMDL = -5")
	p, err := f.TypedParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.NELMDL != 5 {
		t.Fatalf("NELMDL = %d, want 5", p.NELMDL)
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{NELM: 0, KPar: 1, NSim: 1},
		{NELM: 1, KPar: 0, NSim: 1},
		{NELM: 1, KPar: 1, NSim: 0},
		{NELM: 1, KPar: 1, NSim: 1, NBands: -1},
		{NELM: 1, KPar: 1, NSim: 1, ENCUT: -10},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("case %d should fail: %+v", i, p)
		}
	}
	if err := Defaults().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseAlgoVariants(t *testing.T) {
	cases := map[string]Algo{
		"Normal": AlgoNormal, "N": AlgoNormal,
		"VeryFast": AlgoVeryFast, "VF": AlgoVeryFast,
		"fast": AlgoFast, "Damped": AlgoDamped, "All": AlgoAll,
		"ACFDT": AlgoACFDT, "ACFDTR": AlgoACFDTR, "Exact": AlgoExact,
	}
	for in, want := range cases {
		got, err := ParseAlgo(in)
		if err != nil || got != want {
			t.Fatalf("ParseAlgo(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseAlgo("Turbo"); err == nil {
		t.Fatal("unknown algo accepted")
	}
}

const sampleKPOINTS = `Automatic mesh
0
Gamma
4 4 4
0 0 0
`

func TestParseKPoints(t *testing.T) {
	kp, err := ParseKPoints(sampleKPOINTS)
	if err != nil {
		t.Fatal(err)
	}
	if kp.Scheme != "Gamma" || kp.Mesh != [3]int{4, 4, 4} {
		t.Fatalf("kpoints = %+v", kp)
	}
	if kp.Count() != 64 {
		t.Fatalf("Count = %d", kp.Count())
	}
	if r := kp.Reduced(); r != 16 {
		t.Fatalf("Reduced = %d, want 16", r)
	}
}

func TestParseKPointsMonkhorst(t *testing.T) {
	kp, err := ParseKPoints("mesh\n0\nMonkhorst-Pack\n3 3 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if kp.Scheme != "Monkhorst-Pack" || kp.Count() != 9 {
		t.Fatalf("kpoints = %+v", kp)
	}
	if kp.Reduced() != 3 {
		t.Fatalf("Reduced = %d, want 3", kp.Reduced())
	}
}

func TestParseKPointsErrors(t *testing.T) {
	bad := []string{
		"too\nshort",
		"c\n7\nGamma\n4 4 4\n",    // non-automatic
		"c\n0\nLinear\n4 4 4\n",   // unknown scheme
		"c\n0\nGamma\n4 4\n",      // short mesh
		"c\n0\nGamma\n4 4 -1\n",   // bad dimension
		"c\n0\nGamma\n4 4 4\nx\n", // bad shift
	}
	for _, text := range bad {
		if _, err := ParseKPoints(text); err == nil {
			t.Fatalf("accepted bad KPOINTS: %q", strings.Split(text, "\n"))
		}
	}
}

func TestGammaOnlyAndMesh(t *testing.T) {
	if GammaOnly().Reduced() != 1 {
		t.Fatal("gamma-only should reduce to 1")
	}
	m := Mesh(3, 3, 1)
	if m.Count() != 9 {
		t.Fatal("mesh count wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid mesh did not panic")
		}
	}()
	Mesh(0, 1, 1)
}
