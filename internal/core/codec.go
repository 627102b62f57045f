package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"vasppower/internal/stats"
	"vasppower/internal/timeseries"
)

// Binary layout of an encoded JobProfile. Every word is a little-endian
// uint64; floats are their math.Float64bits, so values round-trip bit
// for bit (NaN payloads and signed zeros included).
//
//	JobProfile: name | SamplingInterval | Runtime | EnergyJ
//	            | NodeTotal | CPU | Mem | count(GPUs) | GPUs... | GPUSum
//	Profile:    floats(Values) | grid(Times) | Summary | count(Modes)
//	            | Modes... | HighMode | HasMode (one byte, 0 or 1)
//	            (Modes, HighMode and HasMode are what the accessors
//	            return; encoding computes them if nothing has yet)
//	Summary:    N | Min | Max | Mean | Median | StdDev | Q1 | Q3
//	Mode:       X | Density | FWHM
//	name:       byte length | bytes
//	count:      0 for a nil slice, else 1 + length
//	floats:     count | one word per element
//	grid:       0 followed by floats, or k+1: a copy of the Times of the
//	            k-th profile of this entry (NodeTotal is 0, CPU 1, ...)
//
// The series of one JobProfile are nearly always sampled on one time
// grid, and grids would be half the bytes, so the encoder writes a
// Times slice bit-identical to an earlier one as a back-reference. It
// does so only for a non-empty grid as long as the series' Values,
// which keeps what a decoder allocates proportional to its input.
const (
	wordBytes = 8
	modeBytes = 3 * wordBytes
	// minProfileBytes is the shortest encoded Profile: nil Values, an
	// inline nil grid, Summary, nil Modes, HighMode and HasMode.
	minProfileBytes = (1+2+8+1)*wordBytes + modeBytes + 1
	nilCount        = 0
	inlineGrid      = 0
)

// AppendJobProfile appends the binary encoding of jp to dst and returns
// the extended buffer. DecodeJobProfile inverts it exactly: nil and
// empty slices stay distinct and every float keeps its bits.
func AppendJobProfile(dst []byte, jp JobProfile) []byte {
	e := profileEncoder{buf: dst}
	e.word(uint64(len(jp.Name)))
	e.buf = append(e.buf, jp.Name...)
	e.float(jp.SamplingInterval)
	e.float(jp.Runtime)
	e.float(jp.EnergyJ)
	e.profile(jp.NodeTotal)
	e.profile(jp.CPU)
	e.profile(jp.Mem)
	e.count(len(jp.GPUs), jp.GPUs == nil)
	for _, p := range jp.GPUs {
		e.profile(p)
	}
	e.profile(jp.GPUSum)
	return e.buf
}

type profileEncoder struct {
	buf   []byte
	grids [][]float64 // Times of every profile encoded so far, in order
}

func (e *profileEncoder) word(w uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, w) }

func (e *profileEncoder) float(f float64) { e.word(math.Float64bits(f)) }

func (e *profileEncoder) count(n int, isNil bool) {
	if isNil {
		e.word(nilCount)
		return
	}
	e.word(uint64(n) + 1)
}

func (e *profileEncoder) floats(xs []float64) {
	e.count(len(xs), xs == nil)
	for _, x := range xs {
		e.float(x)
	}
}

func (e *profileEncoder) profile(p Profile) {
	e.floats(p.Series.Values)
	e.grid(p.Series.Times, len(p.Series.Values))
	s := p.Summary
	e.word(uint64(int64(s.N)))
	for _, f := range [...]float64{s.Min, s.Max, s.Mean, s.Median, s.StdDev, s.Q1, s.Q3} {
		e.float(f)
	}
	modes := p.Modes()
	e.count(len(modes), modes == nil)
	for _, m := range modes {
		e.mode(m)
	}
	high, has := p.HighMode()
	e.mode(high)
	var hasMode byte
	if has {
		hasMode = 1
	}
	e.buf = append(e.buf, hasMode)
}

// grid writes times as a back-reference when an earlier profile of the
// entry has a bit-identical grid and times is as long as its series'
// n values, and inline otherwise.
func (e *profileEncoder) grid(times []float64, n int) {
	ref := -1
	if len(times) > 0 && len(times) == n {
		for k, g := range e.grids {
			if sameBits(g, times) {
				ref = k
				break
			}
		}
	}
	e.grids = append(e.grids, times)
	if ref < 0 {
		e.word(inlineGrid)
		e.floats(times)
		return
	}
	e.word(uint64(ref) + 1)
}

func (e *profileEncoder) mode(m stats.Mode) {
	e.float(m.X)
	e.float(m.Density)
	e.float(m.FWHM)
}

// sameBits reports whether a and b hold the same float bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// DecodeJobProfile decodes one AppendJobProfile encoding. It rejects,
// with an error and never a panic, short input, trailing bytes, lengths
// longer than the bytes left, bad back-references and flag bytes other
// than 0 or 1. Every slice of the result is freshly allocated, so two
// decoded profiles (or two series of one) never share memory.
func DecodeJobProfile(data []byte) (JobProfile, error) {
	d := profileDecoder{b: data, size: len(data)}
	var jp JobProfile
	jp.Name = d.name()
	jp.SamplingInterval = d.float()
	jp.Runtime = d.float()
	jp.EnergyJ = d.float()
	jp.NodeTotal = d.profile()
	jp.CPU = d.profile()
	jp.Mem = d.profile()
	if n, ok := d.count(minProfileBytes); ok {
		jp.GPUs = make([]Profile, n)
		for i := range jp.GPUs {
			jp.GPUs[i] = d.profile()
		}
	}
	jp.GPUSum = d.profile()
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return JobProfile{}, d.err
	}
	return jp, nil
}

// profileDecoder reads an encoding front to back. The first error
// sticks and empties the input, so later reads return zero values.
type profileDecoder struct {
	b     []byte
	size  int // input length, for error offsets
	err   error
	grids [][]float64
	cells []modeCell // unused cells of the current allocation
}

func (d *profileDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: decode profile: at byte %d: %s", d.size-len(d.b), fmt.Sprintf(format, args...))
	}
	d.b = nil
}

func (d *profileDecoder) word() uint64 {
	if len(d.b) < wordBytes {
		d.fail("truncated")
		return 0
	}
	w := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[wordBytes:]
	return w
}

func (d *profileDecoder) float() float64 { return math.Float64frombits(d.word()) }

// count reads a slice length whose elements take at least elemBytes
// each, checking it against the bytes left before anything is
// allocated. ok is false for a nil slice or after an error.
func (d *profileDecoder) count(elemBytes int) (n int, ok bool) {
	c := d.word()
	if c == nilCount {
		return 0, false
	}
	if c-1 > uint64(len(d.b)/elemBytes) {
		d.fail("length %d exceeds the %d bytes left", c-1, len(d.b))
		return 0, false
	}
	return int(c - 1), true
}

func (d *profileDecoder) name() string {
	n := d.word()
	if n > uint64(len(d.b)) {
		d.fail("name length %d exceeds the %d bytes left", n, len(d.b))
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *profileDecoder) floats() []float64 {
	n, ok := d.count(wordBytes)
	if !ok {
		return nil
	}
	xs := make([]float64, n)
	b := d.b[:n*wordBytes]
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*wordBytes:]))
	}
	d.b = d.b[n*wordBytes:]
	return xs
}

// grid reads a Times slice for a series of n values: inline, or a
// private copy of the grid an earlier profile of this entry decoded.
func (d *profileDecoder) grid(n int) []float64 {
	var times []float64
	switch ref := d.word(); {
	case ref == inlineGrid:
		times = d.floats()
	case ref-1 >= uint64(len(d.grids)):
		d.fail("grid back-reference %d with %d profiles decoded", ref-1, len(d.grids))
	case n == 0 || len(d.grids[ref-1]) != n:
		d.fail("grid back-reference to %d samples for %d values", len(d.grids[ref-1]), n)
	default:
		times = append([]float64(nil), d.grids[ref-1]...)
	}
	d.grids = append(d.grids, times)
	return times
}

func (d *profileDecoder) profile() Profile {
	var p Profile
	var modes []stats.Mode
	values := d.floats()
	p.Series = timeseries.Series{Times: d.grid(len(values)), Values: values}
	samples := int64(d.word())
	if int64(int(samples)) != samples {
		d.fail("sample count %d overflows int", samples)
	}
	p.Summary = stats.Summary{
		N: int(samples), Min: d.float(), Max: d.float(), Mean: d.float(),
		Median: d.float(), StdDev: d.float(), Q1: d.float(), Q3: d.float(),
	}
	if n, ok := d.count(modeBytes); ok {
		modes = make([]stats.Mode, n)
		for i := range modes {
			modes[i] = d.mode()
		}
	}
	high := d.mode()
	if len(d.b) < 1 {
		d.fail("truncated")
		return p
	}
	has := d.b[0] == 1
	if d.b[0] > 1 {
		d.fail("HasMode byte %d", d.b[0])
		return p
	}
	d.b = d.b[1:]
	// ProfileSeries gives an empty series no cell, and so no modes; so
	// does the decoder, unless the entry says otherwise.
	zeroHigh := math.Float64bits(high.X)|math.Float64bits(high.Density)|math.Float64bits(high.FWHM) == 0
	if len(values) > 0 || modes != nil || has || !zeroHigh {
		p.modes = d.cell()
		p.modes.setFilled(modes, high, has)
	}
	return p
}

// cell returns a fresh mode cell. The cells of one entry come from
// one allocation: eight, the profile count of a four-GPU node.
func (d *profileDecoder) cell() *modeCell {
	if len(d.cells) == 0 {
		d.cells = make([]modeCell, 8)
	}
	c := &d.cells[0]
	d.cells = d.cells[1:]
	return c
}

func (d *profileDecoder) mode() stats.Mode {
	return stats.Mode{X: d.float(), Density: d.float(), FWHM: d.float()}
}
