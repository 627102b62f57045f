package incar

import (
	"testing"
)

// Fuzz targets for the input parsers. `go test` runs the seed corpus;
// `go test -fuzz=FuzzParseINCAR ./internal/dft/incar` explores further.

func FuzzParseINCAR(f *testing.F) {
	seeds := []string{
		"",
		"SYSTEM = x",
		"ALGO = Damped ; NELM = 41\nLHFCALC = .TRUE.",
		"NELM = -3\nNELMDL = -12",
		"! comment only\n# another",
		"EDIFF = 1.0D-6 ; ENCUT = 245",
		"A = = =",
		"=",
		"TAG =\nTAG2 = v ; ; ;",
		"NELM =\nEDIFF =", // typed tags with blank values
		"LREAL auto",      // no '='
		"\x00\xff weird bytes = ok?",
		"KPAR = 999999999999999999999999", // overflow
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		file, err := Parse(text)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted input must behave consistently.
		for _, tag := range file.Tags() {
			if tag == "" {
				t.Fatalf("empty tag accepted from %q", text)
			}
			if !file.Has(tag) {
				t.Fatalf("listed tag %q not retrievable", tag)
			}
		}
		// Typed extraction must never panic, only error.
		_, _ = file.TypedParams()
	})
}

func FuzzParseKPOINTS(f *testing.F) {
	seeds := []string{
		"",
		"mesh\n0\nGamma\n4 4 4\n0 0 0\n",
		"mesh\n0\nMonkhorst\n3 3 1\n",
		"mesh\n1\nGamma\n4 4 4\n",
		"mesh\n0\nGamma\n-1 0 4\n",
		"mesh\n0\nGamma\n4 4\n",
		"x\n0\nG\n1 1 1\nnot a shift\n",
		"x\n\nGamma\n1 1 1\n", // blank automatic-mesh line
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		kp, err := ParseKPoints(text)
		if err != nil {
			return
		}
		if kp.Count() <= 0 {
			t.Fatalf("accepted mesh with count %d from %q", kp.Count(), text)
		}
		if r := kp.Reduced(); r < 1 || r > kp.Count() {
			t.Fatalf("reduced count %d out of [1,%d]", r, kp.Count())
		}
	})
}
