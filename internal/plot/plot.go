// Package plot renders time series and CDFs as ASCII charts for terminal
// output — the simulator's stand-in for the paper's gnuplot figures. It is
// deliberately simple: fixed-size character grids, automatic axis scaling,
// multiple series by glyph.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"

	"pi2/internal/stats"
)

// Series is one named line of (x, y) points.
type Series struct {
	Name  string
	Glyph byte
	X, Y  []float64
}

// Chart is an ASCII chart definition.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Width  int // plot area columns (default 72)
	Height int // plot area rows (default 18)
	// YMin/YMax fix the y-axis; when both zero the axis auto-scales.
	YMin, YMax float64
	Series     []Series
}

var glyphs = []byte{'*', '+', 'o', 'x', '#', '@'}

// Add appends a series, assigning a default glyph by position.
func (c *Chart) Add(name string, x, y []float64) {
	g := glyphs[len(c.Series)%len(glyphs)]
	c.Series = append(c.Series, Series{Name: name, Glyph: g, X: x, Y: y})
}

// AddTimeSeries appends a stats.TimeSeries with seconds on the x axis and
// the given y scale factor (e.g. 1e3 for milliseconds).
func (c *Chart) AddTimeSeries(name string, ts *stats.TimeSeries, yScale float64) {
	x := make([]float64, ts.Len())
	y := make([]float64, ts.Len())
	for i := range ts.Values {
		x[i] = ts.Times[i].Seconds()
		y[i] = ts.Values[i] * yScale
	}
	c.Add(name, x, y)
}

// Render writes the chart.
func (c *Chart) Render(w io.Writer) {
	width, height := c.Width, c.Height
	if width <= 0 {
		width = 72
	}
	if height <= 0 {
		height = 18
	}

	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for i := range s.X {
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymin = math.Min(ymin, s.Y[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if math.IsInf(xmin, 1) {
		fmt.Fprintln(w, c.Title, "(no data)")
		return
	}
	if c.YMax != 0 || c.YMin != 0 {
		ymin, ymax = c.YMin, c.YMax
	}
	if ymax == ymin {
		ymax = ymin + 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range c.Series {
		for i := range s.X {
			col := int(float64(width-1) * (s.X[i] - xmin) / (xmax - xmin))
			row := int(float64(height-1) * (s.Y[i] - ymin) / (ymax - ymin))
			if col < 0 || col >= width || row < 0 || row >= height {
				continue
			}
			grid[height-1-row][col] = s.Glyph
		}
	}

	if c.Title != "" {
		fmt.Fprintln(w, c.Title)
	}
	for r, line := range grid {
		label := ""
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", ymax)
		case height - 1:
			label = fmt.Sprintf("%8.3g", ymin)
		default:
			label = strings.Repeat(" ", 8)
		}
		fmt.Fprintf(w, "%s |%s|\n", label, string(line))
	}
	fmt.Fprintf(w, "%s +%s+\n", strings.Repeat(" ", 8), strings.Repeat("-", width))
	fmt.Fprintf(w, "%s  %-10.4g%s%10.4g\n", strings.Repeat(" ", 8),
		xmin, strings.Repeat(" ", max(0, width-20)), xmax)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(w, "%s  x: %s   y: %s\n", strings.Repeat(" ", 8), c.XLabel, c.YLabel)
	}
	for _, s := range c.Series {
		fmt.Fprintf(w, "%s  %c %s\n", strings.Repeat(" ", 8), s.Glyph, s.Name)
	}
}

// CDFChart renders one or more distributions' CDFs on a shared axis, each
// read at points evenly spaced probabilities.
func CDFChart(w io.Writer, title, xlabel string, samples map[string]stats.Quantiler, points int) {
	c := Chart{Title: title, XLabel: xlabel, YLabel: "P[X<=x]", YMin: 0, YMax: 1}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sortStrings(names)
	for _, name := range names {
		q := samples[name]
		n := max(points, 0)
		if q.N() == 0 {
			n = 0
		}
		x, y := make([]float64, n), make([]float64, n)
		for i := range x {
			y[i] = float64(i+1) / float64(n)
			x[i] = q.Percentile(100 * y[i])
		}
		c.Add(name, x, y)
	}
	c.Render(w)
}

// Sparkline renders a compact one-line bar representation of values.
func Sparkline(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if hi == lo {
		hi = lo + 1
	}
	var sb strings.Builder
	for _, v := range values {
		idx := int(float64(len(levels)-1) * (v - lo) / (hi - lo))
		sb.WriteRune(levels[idx])
	}
	return sb.String()
}

// sortStrings is a tiny insertion sort to avoid importing sort for 2-3 keys.
func sortStrings(xs []string) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}
