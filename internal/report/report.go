// Package report renders experiment results as terminal text: aligned
// tables, horizontal bar charts, sparklines, and ASCII histograms, so
// every figure of the paper can be regenerated in a terminal without
// plotting dependencies.
package report

import (
	"fmt"
	"math"
	"strings"

	"vasppower/internal/stats"
	"vasppower/internal/timeseries"
)

// Table is a simple column-aligned text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given header.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// Bar renders a horizontal bar scaled so that `max` fills `width`
// characters, with the numeric value appended.
func Bar(value, max float64, width int) string {
	if width <= 0 {
		width = 40
	}
	if max <= 0 {
		max = 1
	}
	n := int(math.Round(value / max * float64(width)))
	if n < 0 {
		n = 0
	}
	if n > width {
		n = width
	}
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}

var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a compact unicode strip, downsampling
// to at most width points by window-averaging.
func Sparkline(values []float64, width int) string {
	if len(values) == 0 {
		return ""
	}
	if width <= 0 {
		width = 60
	}
	pts := values
	if len(values) > width {
		pts = make([]float64, width)
		for i := range pts {
			lo := i * len(values) / width
			hi := (i + 1) * len(values) / width
			if hi <= lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range values[lo:hi] {
				sum += v
			}
			pts[i] = sum / float64(hi-lo)
		}
	}
	lo, hi := pts[0], pts[0]
	for _, v := range pts {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	var sb strings.Builder
	for _, v := range pts {
		idx := 0
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[idx])
	}
	return sb.String()
}

// SeriesLine renders a labeled sparkline with range annotations.
func SeriesLine(label string, s timeseries.Series, width int) string {
	if s.Len() == 0 {
		return fmt.Sprintf("%-14s (no samples)", label)
	}
	return fmt.Sprintf("%-14s %s  [%.0f..%.0f W, mean %.0f]",
		label, Sparkline(s.Values, width), s.Min(), s.Max(), s.Mean())
}

// HistogramText renders a histogram as rows of bars.
func HistogramText(h *stats.Histogram, width int) string {
	var sb strings.Builder
	maxCount := 0
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount == 0 {
		return "(empty histogram)\n"
	}
	for i, c := range h.Counts {
		fmt.Fprintf(&sb, "%8.0f W  %s %d\n", h.BinCenter(i), Bar(float64(c), float64(maxCount), width), c)
	}
	return sb.String()
}

// ViolinText renders one violin as a density strip plus quartiles and
// modes.
func ViolinText(v *stats.Violin, width int) string {
	if v == nil {
		return "(empty violin)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %s\n", v.Label, Sparkline(v.KDE.Density, width))
	fmt.Fprintf(&sb, "%-18s min %.0f  q1 %.0f  med %.0f  q3 %.0f  max %.0f",
		"", v.Summary.Min, v.Summary.Q1, v.Summary.Median, v.Summary.Q3, v.Summary.Max)
	if hpm, ok := v.HighPowerMode(); ok {
		fmt.Fprintf(&sb, "  high-mode %.0f (FWHM %.0f)", hpm.X, hpm.FWHM)
	}
	sb.WriteString("\n")
	return sb.String()
}

// Seconds formats a duration compactly.
func Seconds(s float64) string {
	if s >= 100 {
		return fmt.Sprintf("%.0f s", s)
	}
	return fmt.Sprintf("%.1f s", s)
}

// Percent formats a ratio as a percentage.
func Percent(x float64) string { return fmt.Sprintf("%.1f%%", x*100) }
