package stats

import (
	"math"
	"math/rand"
	"testing"
)

// binTestGeometries are the histograms whose edge tables are checked
// against the math.Log formula: the production NewDelayHistogram plus
// coarser and finer widths and a narrow range.
func binTestGeometries() map[string]*LogHistogram {
	return map[string]*LogHistogram{
		"delay":   NewDelayHistogram(),
		"coarse":  NewLogHistogram(1e-3, 1e3, 0.5),
		"fine":    NewLogHistogram(1e-6, 1, 0.005),
		"narrow":  NewLogHistogram(3, 7, 0.02),
		"subunit": NewLogHistogram(1e-300, 1e-290, 0.02),
	}
}

func checkBin(t *testing.T, name string, h *LogHistogram, x float64) bool {
	want := 0
	if x >= h.floor {
		want = h.geometry().formulaBin(x)
	}
	if got := h.binOf(x); got != want {
		t.Errorf("%s: bin(%v = %#x) = %d, formula %d", name, x, math.Float64bits(x), got, want)
		return false
	}
	return true
}

func TestBinTableMatchesFormulaRandom(t *testing.T) {
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	for name, h := range binTestGeometries() {
		if h.tab == nil {
			t.Fatalf("%s: no edge table", name)
		}
		ceil := h.tab.edges[h.nbins-1]
		lo, hi := math.Log(h.floor/10), math.Log(ceil*10)
		rng := rand.New(rand.NewSource(1))
		per := n / 10 // the production geometry gets the full n
		if name == "delay" {
			per = n
		}
		for i := 0; i < per; i++ {
			if !checkBin(t, name, h, math.Exp(lo+rng.Float64()*(hi-lo))) {
				return
			}
		}
	}
}

func TestBinTableMatchesFormulaAtEdges(t *testing.T) {
	for name, h := range binTestGeometries() {
		edges := h.tab.edges
		for i := 1; i < h.nbins; i++ {
			b := math.Float64bits(edges[i])
			for d := -64; d <= 64; d++ {
				if !checkBin(t, name, h, math.Float64frombits(uint64(int64(b)+int64(d)))) {
					return
				}
			}
		}
		for _, x := range []float64{0, math.SmallestNonzeroFloat64, h.floor, math.Nextafter(h.floor, 0),
			math.MaxFloat64, math.Inf(1)} {
			checkBin(t, name, h, x)
		}
	}
}

func BenchmarkBuildBinTable(b *testing.B) {
	g := NewDelayHistogram().geometry()
	for i := 0; i < b.N; i++ {
		buildBinTable(g)
	}
}
