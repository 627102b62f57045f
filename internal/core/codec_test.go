package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"vasppower/internal/dft/method"
	"vasppower/internal/stats"
	"vasppower/internal/timeseries"
	"vasppower/internal/workloads"
)

// jobProfileView mirrors JobProfile with every profile's modes read
// out through the accessors into exported fields, which is what the
// codec carries. Tests compare views, so they do not depend on whether
// a mode had been read yet, and gob (which drops unexported fields)
// can encode them.
type jobProfileView struct {
	Name             string
	SamplingInterval float64
	Runtime          float64
	EnergyJ          float64
	NodeTotal        profileView
	CPU              profileView
	Mem              profileView
	GPUs             []profileView
	GPUSum           profileView
}

type profileView struct {
	Series   timeseries.Series
	Summary  stats.Summary
	Modes    []stats.Mode
	HighMode stats.Mode
	HasMode  bool
}

func view(jp JobProfile) jobProfileView {
	v := jobProfileView{
		Name: jp.Name, SamplingInterval: jp.SamplingInterval, Runtime: jp.Runtime, EnergyJ: jp.EnergyJ,
		NodeTotal: viewOf(jp.NodeTotal), CPU: viewOf(jp.CPU), Mem: viewOf(jp.Mem), GPUSum: viewOf(jp.GPUSum),
	}
	if jp.GPUs != nil {
		v.GPUs = make([]profileView, len(jp.GPUs))
		for i, p := range jp.GPUs {
			v.GPUs[i] = viewOf(p)
		}
	}
	return v
}

func viewOf(p Profile) profileView {
	high, has := p.HighMode()
	return profileView{Series: p.Series, Summary: p.Summary, Modes: p.Modes(), HighMode: high, HasMode: has}
}

// fromView is the inverse of view: a JobProfile whose mode cells are
// filled with the view's modes, as a decoded profile's are.
func fromView(v jobProfileView) JobProfile {
	jp := JobProfile{
		Name: v.Name, SamplingInterval: v.SamplingInterval, Runtime: v.Runtime, EnergyJ: v.EnergyJ,
		NodeTotal: v.NodeTotal.profile(), CPU: v.CPU.profile(), Mem: v.Mem.profile(), GPUSum: v.GPUSum.profile(),
	}
	if v.GPUs != nil {
		jp.GPUs = make([]Profile, len(v.GPUs))
		for i, p := range v.GPUs {
			jp.GPUs[i] = p.profile()
		}
	}
	return jp
}

func (v profileView) profile() Profile {
	c := new(modeCell)
	c.setFilled(v.Modes, v.HighMode, v.HasMode)
	return Profile{Series: v.Series, Summary: v.Summary, modes: c}
}

// gobEncode and gobDecode are the disk tier's previous codec, kept as
// the oracle the binary codec is checked against. They carry the view
// of a profile, which holds every field the old Profile had.
func gobEncode(tb testing.TB, jp JobProfile) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(view(jp)); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func gobDecode(data []byte) (jobProfileView, error) {
	var v jobProfileView
	err := gob.NewDecoder(bytes.NewReader(data)).Decode(&v)
	return v, err
}

// bitEqual reports whether a and b are identical down to the bits:
// floats compare by math.Float64bits (so NaN equals the same NaN and
// +0 differs from -0) and a nil slice differs from an empty one.
func bitEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String, reflect.Int, reflect.Bool:
		return a.Interface() == b.Interface()
	}
	panic("bitEqual: unhandled kind " + a.Kind().String())
}

func sameProfile(a, b JobProfile) bool { return sameView(view(a), view(b)) }

func sameView(a, b jobProfileView) bool { return bitEqual(reflect.ValueOf(a), reflect.ValueOf(b)) }

// hasNaN reports whether v holds a NaN anywhere; reflect.DeepEqual
// never equates NaNs, so those cases rely on bitEqual alone.
func hasNaN(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return math.IsNaN(v.Float())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if hasNaN(v.Index(i)) {
				return true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if hasNaN(v.Field(i)) {
				return true
			}
		}
	}
	return false
}

func roundTrip(t *testing.T, name string, jp JobProfile) []byte {
	t.Helper()
	enc := AppendJobProfile(nil, jp)
	got, err := DecodeJobProfile(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	// Re-encode before anything reads the modes: a lazy cell decodes
	// lazy and so encodes again as it was.
	if again := AppendJobProfile(nil, got); !bytes.Equal(again, enc) {
		t.Fatalf("%s: re-encoding the decoded profile changed the bytes", name)
	}
	if !sameProfile(got, jp) {
		t.Fatalf("%s: round trip is not bit-identical:\n got  %+v\n want %+v", name, got, jp)
	}
	if !hasNaN(reflect.ValueOf(view(jp))) && !reflect.DeepEqual(view(got), view(jp)) {
		t.Fatalf("%s: round trip is not reflect.DeepEqual", name)
	}
	return enc
}

func grid(n int) []float64 {
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = 2 * float64(i+1)
	}
	return ts
}

func seriesProfile(times, values []float64) Profile {
	return Profile{Series: timeseries.Series{Times: times, Values: values}}
}

// syntheticProfiles are the codec's edge cases: special float bits,
// nil versus empty slices at every level, zero GPUs, single samples,
// shared and unshared grids, and lazy mode cells.
func syntheticProfiles() map[string]JobProfile {
	nan := math.Float64frombits(0x7ff8_dead_beef_0001) // quiet NaN with a payload
	snan := math.Float64frombits(0x7ff0_0000_0000_0002)
	negZero := math.Copysign(0, -1)
	special := []float64{nan, snan, negZero, 0, math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	full := profileView{
		Series:   timeseries.Series{Times: grid(len(special)), Values: special},
		Summary:  stats.Summary{N: -3, Min: negZero, Max: math.Inf(1), Mean: nan, Median: 1, StdDev: 2, Q1: 3, Q3: 4},
		Modes:    []stats.Mode{{X: 1, Density: 2, FWHM: 3}, {X: nan, Density: negZero, FWHM: math.Inf(-1)}},
		HighMode: stats.Mode{X: nan, Density: negZero, FWHM: math.Inf(-1)},
		HasMode:  true,
	}.profile()
	noModes := profileView{Modes: []stats.Mode{}}.profile()
	negZeroHigh := profileView{HighMode: stats.Mode{FWHM: negZero}}.profile()
	shared := grid(3)
	return map[string]JobProfile{
		"zero":       {},
		"empty-gpus": {GPUs: []Profile{}},
		"nil-vs-empty": {
			Name:      "nil/empty",
			NodeTotal: profileView{Series: timeseries.Series{Times: []float64{}, Values: []float64{}}, Modes: []stats.Mode{}}.profile(),
			CPU:       Profile{Series: timeseries.Series{Times: nil, Values: []float64{}}},
			Mem:       Profile{Series: timeseries.Series{Times: []float64{}, Values: nil}},
			GPUs:      []Profile{{}, noModes, negZeroHigh},
		},
		"specials": {
			Name: "Ω-unicode", SamplingInterval: nan, Runtime: negZero, EnergyJ: math.Inf(-1),
			NodeTotal: full, CPU: full, Mem: full, GPUs: []Profile{full, full}, GPUSum: full,
		},
		"single-sample": {
			Name:      "one",
			NodeTotal: seriesProfile([]float64{2}, []float64{700}),
			CPU:       seriesProfile([]float64{2}, []float64{90}),
			GPUs:      []Profile{seriesProfile([]float64{2}, []float64{250})},
			GPUSum:    seriesProfile([]float64{2}, []float64{250}),
		},
		"shared-grid": {
			NodeTotal: seriesProfile(shared, []float64{1, 2, 3}),
			CPU:       seriesProfile(append([]float64(nil), shared...), []float64{4, 5, 6}),
			Mem:       seriesProfile(grid(4), []float64{1, 2, 3, 4}),
			GPUs: []Profile{
				seriesProfile(grid(4), []float64{5, 6, 7, 8}),
				seriesProfile(shared, []float64{7, 8}),     // grid longer than values: inline
				seriesProfile(grid(3), []float64{7, 8, 9}), // back-reference to NodeTotal
			},
			GPUSum: seriesProfile([]float64{2, 4, negZero}, []float64{1, 2, 3}), // differs only in a sign bit
		},
		"many-gpus": {GPUs: make([]Profile, 40)},
		"lazy": {
			NodeTotal: ProfileSeries(timeseries.Series{Times: grid(3), Values: []float64{700, 710, 705}}),
			GPUSum:    ProfileSeries(timeseries.Series{Times: grid(1), Values: []float64{nan}}),
		},
	}
}

func TestProfileCodecRoundTrip(t *testing.T) {
	for name, jp := range syntheticProfiles() {
		roundTrip(t, name, jp)
	}
}

// TestProfileCodecRealProfiles round-trips measured profiles and checks
// the back-references pay: all eight series of one measurement share a
// grid, so the encoding holds it once and is much smaller than gob's.
func TestProfileCodecRealProfiles(t *testing.T) {
	for _, name := range []string{"GaAsBi-64", "PdO2", "Si256_hse", "B.hR105_hse"} {
		jp, err := Measure(MeasureSpec{Bench: benchByName(t, name), Seed: 2024})
		if err != nil {
			t.Fatal(err)
		}
		enc := roundTrip(t, name, jp)
		values, gridLen := 0, len(jp.NodeTotal.Series.Times)
		for _, p := range append([]Profile{jp.NodeTotal, jp.CPU, jp.Mem, jp.GPUSum}, jp.GPUs...) {
			values += len(p.Series.Values)
		}
		// Real profiles hold at most two distinct grids; the summaries,
		// modes and framing fit in the slack.
		if limit := 8*(values+2*gridLen) + 4096; len(enc) > limit {
			t.Errorf("%s: %d-byte encoding, want at most %d: grids are not shared", name, len(enc), limit)
		}
		if g := len(gobEncode(t, jp)); len(enc) >= g {
			t.Errorf("%s: encoding %d bytes, gob %d", name, len(enc), g)
		}
	}
}

// TestProfileCodecKeepsLazyModes: encoding computes no KDE. A profile
// nobody has read the modes of encodes every cell lazy and decodes
// lazy, and its modes then read bit-identical to the profile an eager
// DescribeKDE builds; a profile whose modes were all read decodes with
// every cell filled, so reading them runs no KDE; a partly read one
// stores just the cells that were read.
func TestProfileCodecKeepsLazyModes(t *testing.T) {
	for _, name := range []string{"GaAsBi-64", "PdO2", "Si256_hse", "CuC_vdw"} {
		spec := MeasureSpec{Bench: benchByName(t, name), Nodes: 2, Seed: 2024}
		unread, err := Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		series := 4 + len(unread.GPUs)
		enc := AppendJobProfile(nil, unread)
		if n := unread.FilledModes(); n != 0 {
			t.Fatalf("%s: encoding filled %d mode cells", name, n)
		}
		lazy, err := DecodeJobProfile(enc)
		if err != nil {
			t.Fatal(err)
		}
		if n := lazy.FilledModes(); n != 0 {
			t.Fatalf("%s: an unread profile decodes with %d filled cells, want 0", name, n)
		}
		eager := eagerJobProfile(unread)
		if !sameProfile(lazy, eager) {
			t.Errorf("%s: a decoded lazy profile reads other modes than an eager one", name)
		}

		read, err := Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		read.NodeTotal.HighMode()
		partial, err := DecodeJobProfile(AppendJobProfile(nil, read))
		if err != nil {
			t.Fatal(err)
		}
		if n := partial.FilledModes(); n != 1 {
			t.Errorf("%s: a profile read at the node decodes with %d filled cells, want 1", name, n)
		}
		view(read) // reads every mode
		if n := read.FilledModes(); n != series {
			t.Fatalf("%s: %d of %d cells filled after reading every mode", name, n, series)
		}
		filled, err := DecodeJobProfile(AppendJobProfile(nil, read))
		if err != nil {
			t.Fatal(err)
		}
		if n := filled.FilledModes(); n != series {
			t.Errorf("%s: a read profile decodes with %d of %d cells filled", name, n, series)
		}
		if !sameProfile(filled, eager) {
			t.Errorf("%s: a decoded read profile differs from an eager one", name)
		}
	}
}

// TestProfileCodecNoAliasing: decoded series own their grids, even
// where the encoding shares one, and two decodes share nothing.
func TestProfileCodecNoAliasing(t *testing.T) {
	shared := grid(4)
	jp := JobProfile{
		NodeTotal: seriesProfile(shared, []float64{1, 2, 3, 4}),
		CPU:       seriesProfile(shared, []float64{5, 6, 7, 8}),
	}
	enc := AppendJobProfile(nil, jp)
	a, err := DecodeJobProfile(enc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeJobProfile(enc)
	if err != nil {
		t.Fatal(err)
	}
	a.NodeTotal.Series.Times[0] = -1
	if a.CPU.Series.Times[0] != shared[0] || b.NodeTotal.Series.Times[0] != shared[0] {
		t.Fatal("decoded grids alias each other")
	}
}

// TestProfileCodecMatchesGobOracle: the retired gob codec decodes every
// case, modes included, to the same value, except that gob turns empty
// slices into nil and drops the sign of a -0 struct field (slice
// elements keep it).
func TestProfileCodecMatchesGobOracle(t *testing.T) {
	for name, jp := range syntheticProfiles() {
		decoded, err := DecodeJobProfile(AppendJobProfile(nil, jp))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := gobDecode(gobEncode(t, jp))
		if err != nil {
			t.Fatalf("%s: gob: %v", name, err)
		}
		got := view(decoded)
		if gobView(reflect.ValueOf(&got).Elem()); !sameView(got, want) {
			t.Errorf("%s: codec and gob oracle disagree:\n codec %+v\n gob   %+v", name, got, want)
		}
	}
}

// gobView rewrites v in place to what gob makes of it: empty slices
// become nil and -0 struct fields become +0.
func gobView(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		if v.Float() == 0 {
			v.SetFloat(0)
		}
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		for i := 0; i < v.Len(); i++ {
			if e := v.Index(i); e.Kind() != reflect.Float64 {
				gobView(e)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			gobView(v.Field(i))
		}
	}
}

// TestProfileCodecFieldCensus fills every field reachable from the
// view of a JobProfile (its modes included) with a distinct non-zero
// value, builds the profile with filled mode cells, and checks the
// round trip keeps all of them. A field added to JobProfile, Profile,
// the mode cell, Series, Summary or Mode that the codec does not carry
// fails here; gob used to pick new fields up silently. A field of a
// kind the filler does not know fails too, as a prompt to extend the
// codec.
func TestProfileCodecFieldCensus(t *testing.T) {
	var v jobProfileView
	next := 0.0
	var fill func(path string, v reflect.Value)
	fill = func(path string, v reflect.Value) {
		next++
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(next)
		case reflect.Int:
			v.SetInt(int64(next))
		case reflect.String:
			v.SetString(fmt.Sprint("s", next))
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < v.Len(); i++ {
				fill(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		default:
			t.Fatalf("%s: field kind %s is not carried by the profile codec", path, v.Kind())
		}
	}
	fill("JobProfile", reflect.ValueOf(&v).Elem())
	jp := fromView(v)
	roundTrip(t, "census", jp)
	if got := view(jp); !sameView(got, v) {
		t.Fatalf("the profile built from the census does not read back:\n got  %+v\n want %+v", got, v)
	}

	// The census above only proves the fields it filled; pin the shape
	// so a new field's zero value cannot slip through unnoticed either.
	// A Profile is its Series, its Summary and a mode cell, whose
	// once-guard, pending values and filled flag are not data (the cell
	// byte carries whether it is filled); the view must mirror the
	// JobProfile field for field.
	want := map[reflect.Type]int{
		reflect.TypeOf(JobProfile{}):        9,
		reflect.TypeOf(jobProfileView{}):    9,
		reflect.TypeOf(Profile{}):           3,
		reflect.TypeOf(modeCell{}):          6,
		reflect.TypeOf(profileView{}):       5,
		reflect.TypeOf(timeseries.Series{}): 2,
		reflect.TypeOf(stats.Summary{}):     8,
		reflect.TypeOf(stats.Mode{}):        3,
	}
	for typ, n := range want {
		if typ.NumField() != n {
			t.Errorf("%s has %d fields, the codec carries %d: extend AppendJobProfile and DecodeJobProfile", typ, typ.NumField(), n)
		}
	}
}

// TestProfileCodecRejectsCorruption: every proper prefix, trailing
// bytes, bad back-references, cell bytes, lazy cells that carry modes
// or lack a series, and oversized lengths are errors, never a value or
// a panic.
func TestProfileCodecRejectsCorruption(t *testing.T) {
	jp := syntheticProfiles()["shared-grid"]
	enc := AppendJobProfile(nil, jp)
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeJobProfile(enc[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded", n, len(enc))
		}
	}
	if _, err := DecodeJobProfile(append(enc[:len(enc):len(enc)], 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// Hand-built entries around one valid shape: NodeTotal with an
	// inline 2-sample grid, CPU referring to it, then nil Mem, GPUs and
	// GPUSum.
	// buildCPU takes the whole CPU profile; build ends it with a zero
	// Summary, nil Modes, a zero HighMode and the cell byte.
	buildCPU := func(cpu entry) []byte {
		e := entry(nil).word(0, 0, 0, 0) // empty name, three scalars
		e = e.floats(1, 2).word(inlineGrid).floats(2, 4).rest(0)
		e = append(e, cpu...)
		e = e.word(nilCount, inlineGrid, nilCount).rest(0) // Mem
		e = e.word(nilCount)                               // GPUs
		return e.word(nilCount, inlineGrid, nilCount).rest(0)
	}
	build := func(cpu entry, cell byte) []byte { return buildCPU(cpu.rest(cell)) }
	for _, cell := range []byte{cellNoMode, cellMode, cellLazy} {
		if _, err := DecodeJobProfile(build(entry(nil).floats(3, 4).word(1), cell)); err != nil {
			t.Fatalf("hand-built entry with cell byte %d rejected: %v", cell, err)
		}
	}
	summary := make([]uint64, 8)
	lazyWith := func(modes uint64, highX float64) []byte {
		cpu := entry(nil).floats(3, 4).word(1).word(summary...).word(modes)
		for i := uint64(1); i < modes; i++ {
			cpu = cpu.word(1, 2, 3)
		}
		return buildCPU(append(cpu.word(math.Float64bits(highX), 0, 0), cellLazy))
	}
	if _, err := DecodeJobProfile(lazyWith(nilCount, 0)); err != nil {
		t.Fatalf("hand-built lazy cell rejected: %v", err)
	}
	cases := map[string][]byte{
		"self reference":       build(entry(nil).floats(3, 4).word(2), 0),
		"forward reference":    build(entry(nil).floats(3, 4).word(3), 0),
		"reference overflow":   build(entry(nil).floats(3, 4).word(math.MaxUint64), 0),
		"reference, 1 value":   build(entry(nil).floats(3).word(1), 0),
		"reference, no values": build(entry(nil).floats().word(1), 0),
		"cell byte":            build(entry(nil).floats(3, 4).word(1), 3),
		"lazy, a mode":         lazyWith(2, 0),
		"lazy, empty modes":    lazyWith(1, 0),
		"lazy, high mode":      lazyWith(nilCount, 1),
		"lazy, -0 high mode":   lazyWith(nilCount, math.Copysign(0, -1)),
		"lazy, empty values":   build(entry(nil).floats().word(inlineGrid, nilCount), 2),
		"lazy, nil values":     build(entry(nil).word(nilCount, inlineGrid, nilCount), 2),
		"huge values length":   entry(nil).word(0, 0, 0, 0, math.MaxUint64),
		"huge name length":     entry(nil).word(math.MaxUint64 - 7),
		"huge gpu count":       entry(build(nil, 0)[:4*wordBytes+3*minProfileBytes]).word(math.MaxUint64 / 2),
	}
	for name, raw := range cases {
		if _, err := DecodeJobProfile(raw); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// entry builds profile encodings word by word for the corruption cases.
type entry []byte

func (e entry) word(ws ...uint64) entry {
	for _, w := range ws {
		e = binary.LittleEndian.AppendUint64(e, w)
	}
	return e
}

func (e entry) floats(xs ...float64) entry {
	e = e.word(uint64(len(xs)) + 1)
	for _, x := range xs {
		e = e.word(math.Float64bits(x))
	}
	return e
}

// rest ends a profile: a zero Summary, nil Modes, a zero HighMode and
// the cell byte.
func (e entry) rest(cell byte) entry {
	return append(e.word(make([]uint64, 8+1+3)...), cell)
}

// FuzzProfileDecode feeds arbitrary bytes to the decoder, seeded with
// real and synthetic entries, their truncations and bit flips. The
// decoder must not panic, must not allocate out of proportion to its
// input, and any value it accepts must survive a re-encode bit for bit.
// The real seed is a short run (three samples a series, ~1.4 kB), so
// minimizing an interesting input stays quick; it is encoded unread,
// every cell lazy, and once more after every mode was read.
func FuzzProfileDecode(f *testing.F) {
	b, err := workloads.SiliconBenchmark(64, method.DFTRMM)
	if err != nil {
		f.Fatal(err)
	}
	jp, err := Measure(MeasureSpec{Bench: b, Seed: 2024})
	if err != nil {
		f.Fatal(err)
	}
	real := AppendJobProfile(nil, jp)
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(real[:len(real)-1])
	for _, i := range []int{0, 8, 40, len(real) / 3, len(real) - 1} {
		flipped := bytes.Clone(real)
		flipped[i] ^= 1 << (i % 8)
		f.Add(flipped)
	}
	for _, jp := range syntheticProfiles() {
		f.Add(AppendJobProfile(nil, jp))
	}
	view(jp)
	f.Add(AppendJobProfile(nil, jp))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		jp, err := DecodeJobProfile(raw)
		runtime.ReadMemStats(&after)
		// Decoded floats are at most twice the input's (a grid
		// back-reference copies as many floats as its series' inline
		// values), and each Profile header costs less than the
		// minimum encoded profile it came from.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4*uint64(len(raw))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(raw), alloc)
		}
		if err != nil {
			return
		}
		again, err := DecodeJobProfile(AppendJobProfile(nil, jp))
		if err != nil {
			t.Fatalf("re-encoded value rejected: %v", err)
		}
		if !sameProfile(again, jp) {
			t.Fatal("re-encoded value decoded differently")
		}
	})
}

var (
	codecProfileSink JobProfile
	codecViewSink    jobProfileView
	codecBytesSink   []byte
)

// BenchmarkProfileCodec decodes and encodes real disk-cache entries
// with the binary codec and, for comparison, the retired gob codec.
func BenchmarkProfileCodec(b *testing.B) {
	for _, name := range []string{"GaAsBi-64", "Si256_hse"} {
		jp, err := Measure(MeasureSpec{Bench: benchByName(b, name), Seed: 2024})
		if err != nil {
			b.Fatal(err)
		}
		enc, genc := AppendJobProfile(nil, jp), gobEncode(b, jp)
		b.Run("decode/"+name+"/binary", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				codecProfileSink, err = DecodeJobProfile(enc)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("decode/"+name+"/gob", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(genc)))
			for i := 0; i < b.N; i++ {
				codecViewSink, err = gobDecode(genc)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("encode/"+name+"/binary", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				codecBytesSink = AppendJobProfile(nil, jp)
			}
		})
		b.Run("encode/"+name+"/gob", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(genc)))
			for i := 0; i < b.N; i++ {
				codecBytesSink = gobEncode(b, jp)
			}
		})
	}
}
