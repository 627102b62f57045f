package stats

// Violin is the data behind one violin plot: a KDE profile plus the
// quartile lines, as in the paper's Figure 9.
type Violin struct {
	Label   string
	Summary Summary
	KDE     *KDE
	// Modes of the distribution (≥ DefaultModeThreshold), low→high.
	Modes []Mode
}

// NewViolin summarizes a sample as a violin. Empty samples yield a nil
// violin.
func NewViolin(label string, xs []float64) *Violin {
	if len(xs) == 0 {
		return nil
	}
	s, k, _ := DescribeKDE(xs, 512)
	return &Violin{
		Label:   label,
		Summary: s,
		KDE:     k,
		Modes:   k.Modes(DefaultModeThreshold),
	}
}

// HighPowerMode returns the violin's high power mode (the rightmost
// mode). ok is false when the sample had no resolvable mode.
func (v *Violin) HighPowerMode() (Mode, bool) {
	if v == nil || len(v.Modes) == 0 {
		return Mode{}, false
	}
	return v.Modes[len(v.Modes)-1], true
}

// IsMultiModal reports whether the distribution has at least two modes
// above the default threshold — the paper observes VASP power
// distributions are "non-normal and at least bimodal" (§III-C).
func (v *Violin) IsMultiModal() bool {
	return v != nil && len(v.Modes) >= 2
}
