package report

import (
	"strings"
	"testing"
	"unicode/utf8"

	"vasppower/internal/rng"
	"vasppower/internal/stats"
	"vasppower/internal/timeseries"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("a", "1")
	tb.AddRow("longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	// All rows equal width.
	w := len(lines[0])
	for i, l := range lines {
		if len(strings.TrimRight(l, " ")) > w {
			t.Fatalf("row %d wider than header: %q", i, l)
		}
	}
	if !strings.Contains(out, "longer-name") {
		t.Fatal("row content missing")
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("only")
	out := tb.String()
	if !strings.Contains(out, "only") {
		t.Fatal("short row lost")
	}
}

func TestBar(t *testing.T) {
	full := Bar(10, 10, 10)
	if utf8.RuneCountInString(full) != 10 || strings.Contains(full, "·") {
		t.Fatalf("full bar wrong: %q", full)
	}
	empty := Bar(0, 10, 10)
	if strings.Contains(empty, "█") {
		t.Fatalf("empty bar wrong: %q", empty)
	}
	half := Bar(5, 10, 10)
	if strings.Count(half, "█") != 5 {
		t.Fatalf("half bar wrong: %q", half)
	}
	// Clamping.
	over := Bar(20, 10, 10)
	if utf8.RuneCountInString(over) != 10 {
		t.Fatalf("over bar wrong: %q", over)
	}
	if got := Bar(1, 0, 0); got == "" {
		t.Fatal("degenerate args should still render")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil, 10) != "" {
		t.Fatal("empty sparkline should be empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline length wrong: %q", s)
	}
	if !strings.HasPrefix(s, "▁") || !strings.HasSuffix(s, "█") {
		t.Fatalf("monotone ramp should span glyph range: %q", s)
	}
	// Downsampling to width.
	long := make([]float64, 1000)
	for i := range long {
		long[i] = float64(i)
	}
	d := Sparkline(long, 40)
	if utf8.RuneCountInString(d) != 40 {
		t.Fatalf("downsampled length = %d", utf8.RuneCountInString(d))
	}
	// Constant input does not panic (zero range).
	c := Sparkline([]float64{5, 5, 5}, 10)
	if c == "" {
		t.Fatal("constant sparkline empty")
	}
}

func TestSeriesLine(t *testing.T) {
	var s timeseries.Series
	if !strings.Contains(SeriesLine("x", s, 10), "no samples") {
		t.Fatal("empty series line wrong")
	}
	s.Times = []float64{1, 2, 3}
	s.Values = []float64{100, 200, 300}
	line := SeriesLine("node", s, 10)
	if !strings.Contains(line, "node") || !strings.Contains(line, "mean 200") {
		t.Fatalf("series line wrong: %q", line)
	}
}

func TestHistogramText(t *testing.T) {
	h := stats.NewHistogram([]float64{1, 1, 2, 3}, 3, 0, 3)
	out := HistogramText(h, 20)
	if strings.Count(out, "\n") != 3 {
		t.Fatalf("histogram rows wrong: %q", out)
	}
	empty := stats.NewHistogram(nil, 3, 0, 3)
	if !strings.Contains(HistogramText(empty, 20), "empty") {
		t.Fatal("empty histogram not flagged")
	}
}

func TestViolinText(t *testing.T) {
	r := rng.New(1)
	var xs []float64
	for i := 0; i < 2000; i++ {
		xs = append(xs, r.Normal(500, 20))
	}
	v := stats.NewViolin("hse", xs)
	out := ViolinText(v, 30)
	if !strings.Contains(out, "hse") || !strings.Contains(out, "high-mode") {
		t.Fatalf("violin text wrong: %q", out)
	}
	if !strings.Contains(ViolinText(nil, 30), "empty") {
		t.Fatal("nil violin not flagged")
	}
}

func TestFormatters(t *testing.T) {
	if Seconds(5.25) != "5.2 s" {
		t.Fatalf("Seconds = %q", Seconds(5.25))
	}
	if Seconds(250) != "250 s" {
		t.Fatalf("Seconds = %q", Seconds(250))
	}
	if Percent(0.095) != "9.5%" {
		t.Fatalf("Percent = %q", Percent(0.095))
	}
}
