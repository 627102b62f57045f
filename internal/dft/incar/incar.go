// Package incar parses the VASP input files our workload model
// consumes: INCAR (tag = value pairs) and KPOINTS (k-point mesh).
// Only the subset of tags that influence power/performance behavior in
// the paper is interpreted, but the parser accepts any syntactically
// valid INCAR, so the real benchmark inputs can be used unmodified.
//
// INCAR syntax handled: `TAG = value` assignments, `!` and `#`
// comments (full-line and trailing), blank lines, multiple assignments
// per line separated by `;`, and Fortran-style logicals
// (.TRUE./.FALSE./T/F).
package incar

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// File is a parsed INCAR: ordered tags with raw string values plus
// typed access.
type File struct {
	tags  map[string]string
	order []string
}

// Parse reads INCAR text.
func Parse(text string) (*File, error) {
	f := &File{tags: make(map[string]string)}
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		// Strip comments. VASP treats both '!' and '#' as comment
		// leaders anywhere on the line.
		if i := strings.IndexAny(line, "!#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		for _, assign := range strings.Split(line, ";") {
			assign = strings.TrimSpace(assign)
			if assign == "" {
				continue
			}
			eq := strings.Index(assign, "=")
			if eq < 0 {
				return nil, fmt.Errorf("incar: line %d: %q is not a TAG = value assignment", lineNo, assign)
			}
			tag := strings.ToUpper(strings.TrimSpace(assign[:eq]))
			val := strings.TrimSpace(assign[eq+1:])
			if tag == "" {
				return nil, fmt.Errorf("incar: line %d: empty tag", lineNo)
			}
			if _, dup := f.tags[tag]; !dup {
				f.order = append(f.order, tag)
			}
			f.tags[tag] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("incar: %w", err)
	}
	return f, nil
}

// Tags returns the tag names in first-appearance order.
func (f *File) Tags() []string { return append([]string(nil), f.order...) }

// Has reports whether the tag is present.
func (f *File) Has(tag string) bool {
	_, ok := f.tags[strings.ToUpper(tag)]
	return ok
}

// String returns the raw value of tag, or def when absent.
func (f *File) String(tag, def string) string {
	if v, ok := f.tags[strings.ToUpper(tag)]; ok {
		return v
	}
	return def
}

// Int returns the tag parsed as an integer.
func (f *File) Int(tag string, def int) (int, error) {
	v, ok := f.tags[strings.ToUpper(tag)]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(firstField(v))
	if err != nil {
		return 0, fmt.Errorf("incar: tag %s: %q is not an integer", strings.ToUpper(tag), v)
	}
	return n, nil
}

// Float returns the tag parsed as a float. Fortran 'D' exponents are
// accepted (1.0D-4).
func (f *File) Float(tag string, def float64) (float64, error) {
	v, ok := f.tags[strings.ToUpper(tag)]
	if !ok {
		return def, nil
	}
	s := firstField(v)
	s = strings.ReplaceAll(strings.ReplaceAll(s, "D", "E"), "d", "e")
	x, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("incar: tag %s: %q is not a number", strings.ToUpper(tag), v)
	}
	return x, nil
}

// firstField returns the first whitespace-separated word of v, or ""
// for a blank value ("NELM =", an empty KPOINTS line) so that parsing
// it fails with the caller's error instead of panicking.
func firstField(v string) string {
	if fs := strings.Fields(v); len(fs) > 0 {
		return fs[0]
	}
	return ""
}

// Bool returns the tag parsed as a Fortran logical.
func (f *File) Bool(tag string, def bool) (bool, error) {
	v, ok := f.tags[strings.ToUpper(tag)]
	if !ok {
		return def, nil
	}
	switch strings.ToUpper(strings.TrimSpace(v)) {
	case ".TRUE.", "T", "TRUE", ".T.":
		return true, nil
	case ".FALSE.", "F", "FALSE", ".F.":
		return false, nil
	}
	return false, fmt.Errorf("incar: tag %s: %q is not a logical", strings.ToUpper(tag), v)
}

// Algo identifies VASP's electronic minimization algorithm (the ALGO
// tag), which selects the iteration scheme and with it the kernel mix
// (Table I's "Algo" row).
type Algo string

// Algorithms appearing in the paper's benchmarks.
const (
	AlgoNormal   Algo = "Normal"   // blocked Davidson
	AlgoVeryFast Algo = "VeryFast" // RMM-DIIS
	AlgoFast     Algo = "Fast"     // Davidson + RMM-DIIS
	AlgoDamped   Algo = "Damped"   // damped MD / CG, used for hybrids
	AlgoAll      Algo = "All"      // conjugate gradient over all bands
	AlgoACFDT    Algo = "ACFDT"    // RPA correlation energy
	AlgoACFDTR   Algo = "ACFDTR"   // low-scaling RPA
	AlgoExact    Algo = "Exact"    // exact diagonalization
)

// ParseAlgo canonicalizes an ALGO value.
func ParseAlgo(s string) (Algo, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "NORMAL", "N":
		return AlgoNormal, nil
	case "VERYFAST", "VF", "V":
		return AlgoVeryFast, nil
	case "FAST", "F":
		return AlgoFast, nil
	case "DAMPED", "D":
		return AlgoDamped, nil
	case "ALL", "A":
		return AlgoAll, nil
	case "ACFDT":
		return AlgoACFDT, nil
	case "ACFDTR":
		return AlgoACFDTR, nil
	case "EXACT", "E":
		return AlgoExact, nil
	}
	return "", fmt.Errorf("incar: unknown ALGO %q", s)
}

// Params is the typed view of the tags our model interprets.
type Params struct {
	System      string
	Algo        Algo
	NELM        int     // max SCF iterations
	NELMDL      int     // initial non-selfconsistent iterations
	NBands      int     // 0 = derive from electron count
	NBandsExact int     // RPA exact-diagonalization band count
	ENCUT       float64 // plane-wave cutoff, eV (0 = POTCAR default)
	KPar        int     // k-point parallelism groups
	NSim        int     // bands blocked per RMM-DIIS step
	LHFCalc     bool    // hybrid functional (HSE)
	HFScreen    float64 // screening parameter (0.2 for HSE06)
	IVDW        int     // van der Waals correction scheme (0 = off)
	Prec        string  // precision mode
	ISpin       int
}

// Defaults returns VASP-like defaults.
func Defaults() Params {
	return Params{
		Algo:   AlgoNormal,
		NELM:   60,
		NELMDL: 0,
		KPar:   1,
		NSim:   4,
		Prec:   "Normal",
		ISpin:  1,
	}
}

// TypedParams interprets the file into Params, applying defaults for
// absent tags.
func (f *File) TypedParams() (Params, error) {
	p := Defaults()
	p.System = f.String("SYSTEM", "unknown system")
	var err error
	if f.Has("ALGO") {
		if p.Algo, err = ParseAlgo(f.String("ALGO", "")); err != nil {
			return p, err
		}
	}
	if p.NELM, err = f.Int("NELM", p.NELM); err != nil {
		return p, err
	}
	if p.NELMDL, err = f.Int("NELMDL", p.NELMDL); err != nil {
		return p, err
	}
	// NELMDL is conventionally negative in VASP inputs (negative means
	// "only on the first ionic step"); magnitude is what matters here.
	if p.NELMDL < 0 {
		p.NELMDL = -p.NELMDL
	}
	if p.NBands, err = f.Int("NBANDS", 0); err != nil {
		return p, err
	}
	if p.NBandsExact, err = f.Int("NBANDSEXACT", 0); err != nil {
		return p, err
	}
	if p.ENCUT, err = f.Float("ENCUT", 0); err != nil {
		return p, err
	}
	if p.KPar, err = f.Int("KPAR", 1); err != nil {
		return p, err
	}
	if p.NSim, err = f.Int("NSIM", 4); err != nil {
		return p, err
	}
	if p.LHFCalc, err = f.Bool("LHFCALC", false); err != nil {
		return p, err
	}
	if p.HFScreen, err = f.Float("HFSCREEN", 0); err != nil {
		return p, err
	}
	if p.IVDW, err = f.Int("IVDW", 0); err != nil {
		return p, err
	}
	if p.ISpin, err = f.Int("ISPIN", 1); err != nil {
		return p, err
	}
	p.Prec = f.String("PREC", "Normal")
	return p, p.Validate()
}

// Validate rejects parameter combinations the model cannot run.
func (p Params) Validate() error {
	if p.NELM <= 0 {
		return fmt.Errorf("incar: NELM must be positive, got %d", p.NELM)
	}
	if p.KPar <= 0 {
		return fmt.Errorf("incar: KPAR must be positive, got %d", p.KPar)
	}
	if p.NSim <= 0 {
		return fmt.Errorf("incar: NSIM must be positive, got %d", p.NSim)
	}
	if p.NBands < 0 || p.NBandsExact < 0 {
		return fmt.Errorf("incar: negative band count")
	}
	if p.ENCUT < 0 {
		return fmt.Errorf("incar: negative ENCUT")
	}
	return nil
}
