package plot

import (
	"strings"
	"testing"
	"time"

	"pi2/internal/stats"
)

func TestChartRenders(t *testing.T) {
	c := Chart{Title: "test chart", XLabel: "t", YLabel: "q"}
	c.Add("a", []float64{0, 1, 2, 3}, []float64{0, 1, 4, 9})
	c.Add("b", []float64{0, 1, 2, 3}, []float64{9, 4, 1, 0})
	var sb strings.Builder
	c.Render(&sb)
	out := sb.String()
	for _, want := range []string{"test chart", "*", "+", " a", " b", "x: t", "y: q"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Axis bounds appear.
	if !strings.Contains(out, "9") || !strings.Contains(out, "0") {
		t.Error("axis labels missing")
	}
}

func TestChartEmpty(t *testing.T) {
	c := Chart{Title: "empty"}
	var sb strings.Builder
	c.Render(&sb)
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty chart should say so")
	}
}

func TestChartConstantSeries(t *testing.T) {
	c := Chart{}
	c.Add("flat", []float64{0, 1}, []float64{5, 5})
	var sb strings.Builder
	c.Render(&sb) // must not divide by zero
	if sb.Len() == 0 {
		t.Error("nothing rendered")
	}
}

func TestAddTimeSeries(t *testing.T) {
	ts := &stats.TimeSeries{}
	ts.Record(1*time.Second, 0.010)
	ts.Record(2*time.Second, 0.020)
	c := Chart{}
	c.AddTimeSeries("q", ts, 1e3)
	if len(c.Series) != 1 || c.Series[0].Y[1] != 20 {
		t.Errorf("series = %+v", c.Series)
	}
}

func TestCDFChart(t *testing.T) {
	a, b := stats.NewDelayHistogram(), stats.NewDelayHistogram()
	for i := 0; i < 100; i++ {
		a.Add(float64(i))
		b.Add(float64(i) * 2)
	}
	var sb strings.Builder
	CDFChart(&sb, "cdfs", "ms", map[string]stats.Quantiler{"pie": a, "pi2": b}, 50)
	out := sb.String()
	if !strings.Contains(out, "pie") || !strings.Contains(out, "pi2") {
		t.Errorf("legend missing:\n%s", out)
	}
}

func TestSparkline(t *testing.T) {
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	if len([]rune(s)) != 8 {
		t.Errorf("sparkline runes = %d, want 8", len([]rune(s)))
	}
	if []rune(s)[0] != '▁' || []rune(s)[7] != '█' {
		t.Errorf("sparkline endpoints wrong: %q", s)
	}
	if Sparkline(nil) != "" {
		t.Error("empty input")
	}
	if len([]rune(Sparkline([]float64{3, 3, 3}))) != 3 {
		t.Error("constant input")
	}
}

func TestGlyphCycle(t *testing.T) {
	c := Chart{}
	for i := 0; i < 8; i++ {
		c.Add("s", []float64{0}, []float64{0})
	}
	if c.Series[0].Glyph != c.Series[6].Glyph {
		t.Error("glyphs should cycle after 6 series")
	}
	if c.Series[0].Glyph == c.Series[1].Glyph {
		t.Error("adjacent series share a glyph")
	}
}
