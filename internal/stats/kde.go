package stats

import (
	"math"
	"sort"
)

// KDE is a Gaussian kernel density estimate over a uniform evaluation
// grid. The paper determines the "high power mode" from the KDE of the
// power timeline data (§III-B.3).
type KDE struct {
	Xs        []float64 // grid points (strictly increasing, uniform)
	Density   []float64 // estimated density at each grid point
	Bandwidth float64
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth:
// 0.9·min(σ, IQR/1.34)·n^(−1/5). Degenerate samples (zero spread) get
// a small positive bandwidth so the KDE remains well-defined.
func SilvermanBandwidth(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s, _ := Describe(xs)
	return silverman(s)
}

func silverman(s Summary) float64 {
	spread := s.StdDev
	if iqr := (s.Q3 - s.Q1) / 1.34; iqr > 0 && iqr < spread {
		spread = iqr
	}
	if spread <= 0 {
		// Constant sample: pick a bandwidth proportional to the value
		// scale so the density is a narrow bump, not a delta.
		spread = math.Max(1e-6, math.Abs(s.Mean)*1e-3)
	}
	return 0.9 * spread * math.Pow(float64(s.N), -0.2)
}

// NewKDE estimates the density of xs on a uniform grid of gridN points
// spanning [min−3h, max+3h], with bandwidth h. If h <= 0, Silverman's
// rule is used. An empty xs yields a flat two-point estimate; otherwise
// gridN < 2 panics. The Gaussian kernel is truncated at
// 4 bandwidths (pointwise relative error below ~1e−4), so only the
// (sample, grid point) pairs within 4h of each other contribute.
//
// The sample is evaluated as runs of equal values: the kernel costs one
// exp per (distinct value, grid point) pair inside the window and one
// add per (sample, grid point) pair. Sampled power timelines repeat
// values heavily (window means inside one long kernel segment are
// bit-identical), so this is a fraction of the per-sample exp count,
// and every density is bit-identical to the per-sample fold.
func NewKDE(xs []float64, h float64, gridN int) *KDE {
	if len(xs) == 0 {
		return &KDE{Xs: []float64{0, 1}, Density: []float64{0, 0}, Bandwidth: 1}
	}
	sorted := sortedCopy(xs)
	if h <= 0 {
		h = silverman(describeSorted(xs, sorted))
	}
	return kdeSorted(sorted, h, gridN)
}

// DescribeKDE returns Describe(xs) and NewKDE(xs, 0, gridN), bit for
// bit, from one sorted copy of xs instead of the three that the
// separate calls make. It returns ErrEmpty for an empty sample.
func DescribeKDE(xs []float64, gridN int) (Summary, *KDE, error) {
	if len(xs) == 0 {
		return Summary{}, nil, ErrEmpty
	}
	sorted := sortedCopy(xs)
	s := describeSorted(xs, sorted)
	return s, kdeSorted(sorted, silverman(s), gridN), nil
}

// kdeSorted evaluates the estimate of the non-empty sample whose
// ascending copy is sorted, with bandwidth h. It overwrites sorted and
// panics if gridN < 2.
func kdeSorted(sorted []float64, h float64, gridN int) *KDE {
	if gridN < 2 {
		panic("stats: KDE grid too small")
	}
	n := len(sorted)
	lo := sorted[0] - 3*h
	hi := sorted[n-1] + 3*h
	// Compact sorted in place into its runs: vals[r] is the r-th
	// distinct value and counts[r] its multiplicity. Equal values
	// (±0 included) give the same kernel term, and NaN, equal to
	// nothing, stays a run of one. Appending to vals writes at or
	// behind the element being read.
	vals, counts := sorted[:1], make([]int, 1, n)
	counts[0] = 1
	for _, v := range sorted[1:] {
		if last := len(vals) - 1; v == vals[last] {
			counts[last]++
			continue
		}
		vals = append(vals, v)
		counts = append(counts, 1)
	}
	runs := len(vals)
	k := &KDE{
		Xs:        make([]float64, gridN),
		Density:   make([]float64, gridN),
		Bandwidth: h,
	}
	step := (hi - lo) / float64(gridN-1)
	invH := 1 / h
	norm := 1 / (float64(n) * h * math.Sqrt(2*math.Pi))
	// Truncate the kernel at |x−xi| > 4h: exp(−8) ≈ 3.4e−4 of the peak,
	// and the discarded tail mass per sample is 2(1−Φ(4)) ≈ 6e−5 — far
	// below every tolerance downstream. Grid points increase strictly,
	// so the contributing run window [r0, r1) slides monotonically:
	// both edges only ever advance, making the window bookkeeping
	// linear over the whole grid instead of a binary search per point.
	// The window predicates agree on equal values, so its edges fall on
	// the same samples as a per-sample window would.
	cut := 4 * h
	r0, r1 := 0, 0
	for i := 0; i < gridN; i++ {
		x := lo + float64(i)*step
		k.Xs[i] = x
		for r0 < runs && vals[r0] < x-cut {
			r0++
		}
		if r1 < r0 {
			r1 = r0
		}
		for r1 < runs && vals[r1] <= x+cut {
			r1++
		}
		// Add each run's term once per copy, in sorted order: the same
		// left-to-right sequence of float adds as summing per sample,
		// so no rounding changes.
		var d float64
		for r := r0; r < r1; r++ {
			u := (x - vals[r]) * invH
			e := math.Exp(-0.5 * u * u)
			for c := counts[r]; c > 0; c-- {
				d += e
			}
		}
		k.Density[i] = d * norm
	}
	return k
}

// Step returns the grid spacing.
func (k *KDE) Step() float64 {
	if len(k.Xs) < 2 {
		return 0
	}
	return k.Xs[1] - k.Xs[0]
}

// Integral returns the trapezoidal integral of the density over the
// grid (≈ 1 for a well-resolved estimate).
func (k *KDE) Integral() float64 {
	var s float64
	for i := 1; i < len(k.Xs); i++ {
		s += (k.Xs[i] - k.Xs[i-1]) * (k.Density[i] + k.Density[i-1]) / 2
	}
	return s
}

// DensityAt evaluates the estimate at x by linear interpolation on the
// grid (0 outside the grid and for non-finite x).
func (k *KDE) DensityAt(x float64) float64 {
	n := len(k.Xs)
	if n == 0 || math.IsNaN(x) || math.IsInf(x, 0) || x < k.Xs[0] || x > k.Xs[n-1] {
		return 0
	}
	i := sort.SearchFloat64s(k.Xs, x)
	if i == 0 {
		return k.Density[0]
	}
	if i >= n {
		return k.Density[n-1]
	}
	x0, x1 := k.Xs[i-1], k.Xs[i]
	f := (x - x0) / (x1 - x0)
	return k.Density[i-1]*(1-f) + k.Density[i]*f
}

// Mode is a local maximum of a KDE.
type Mode struct {
	X       float64 // location (watts, in our use)
	Density float64 // density at the peak
	// FWHM is the full width at half maximum of this mode's peak,
	// measured within the peak's basin (walking outward from the peak
	// until the density falls below half the peak density or a valley
	// is crossed).
	FWHM float64
}

// Modes returns the local maxima of the density curve, in increasing
// order of X, ignoring peaks whose density is below minRelDensity times
// the global maximum density (to suppress numerical ripples).
func (k *KDE) Modes(minRelDensity float64) []Mode {
	n := len(k.Xs)
	if n < 3 {
		return nil
	}
	var globalMax float64
	for _, d := range k.Density {
		if d > globalMax {
			globalMax = d
		}
	}
	if globalMax == 0 {
		return nil
	}
	thresh := minRelDensity * globalMax
	var modes []Mode
	for i := 1; i < n-1; i++ {
		d := k.Density[i]
		if d < thresh {
			continue
		}
		// A peak: strictly greater than the left neighbor and at least
		// as large as the right neighbor (plateaus yield their leftmost
		// point).
		if d > k.Density[i-1] && d >= k.Density[i+1] {
			modes = append(modes, Mode{
				X:       k.Xs[i],
				Density: d,
				FWHM:    k.fwhmAt(i),
			})
		}
	}
	return modes
}

// fwhmAt measures the full width at half maximum of the peak at grid
// index i, walking outward until the density drops below half of the
// peak value. Interpolates the crossing points linearly. If the
// density never falls below half within the grid (e.g. a shoulder), the
// grid edge bounds the width.
func (k *KDE) fwhmAt(i int) float64 {
	half := k.Density[i] / 2
	// Walk left.
	left := k.Xs[0]
	for j := i; j > 0; j-- {
		if k.Density[j-1] < half {
			// Crossing between j-1 and j.
			d0, d1 := k.Density[j-1], k.Density[j]
			f := (half - d0) / (d1 - d0)
			left = k.Xs[j-1] + f*(k.Xs[j]-k.Xs[j-1])
			break
		}
	}
	// Walk right.
	right := k.Xs[len(k.Xs)-1]
	for j := i; j < len(k.Xs)-1; j++ {
		if k.Density[j+1] < half {
			d0, d1 := k.Density[j], k.Density[j+1]
			f := (d0 - half) / (d0 - d1)
			right = k.Xs[j] + f*(k.Xs[j+1]-k.Xs[j])
			break
		}
	}
	return right - left
}

// HighPowerMode returns the paper's headline metric: the mode at the
// highest power (the rightmost local maximum whose density is at least
// minRelDensity of the global peak). ok is false when no mode exists.
//
// The paper argues this is a better power-management metric than the
// mean (multi-modal timelines) or the max (brief spikes).
func (k *KDE) HighPowerMode(minRelDensity float64) (Mode, bool) {
	modes := k.Modes(minRelDensity)
	if len(modes) == 0 {
		return Mode{}, false
	}
	return modes[len(modes)-1], true
}

// DefaultModeThreshold is the relative-density cutoff used throughout
// the experiments when locating modes: a local maximum must reach 10%
// of the global density peak to count as a mode. This mirrors the
// paper's KDE-based visual identification, which ignores negligible
// ripples.
const DefaultModeThreshold = 0.10

// HighPowerModeOf is a convenience wrapper: Silverman KDE on a
// 512-point grid, then HighPowerMode with the default threshold.
func HighPowerModeOf(xs []float64) (Mode, bool) {
	if len(xs) == 0 {
		return Mode{}, false
	}
	k := NewKDE(xs, 0, 512)
	return k.HighPowerMode(DefaultModeThreshold)
}
