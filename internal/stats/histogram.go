package stats

import "math"

// Quantiler is the interface the simulations and the reporting code share
// for distributions. Every collector a simulation builds is a
// LogHistogram; tests wrap it to compare against exact order statistics.
type Quantiler interface {
	// Add records one observation.
	Add(x float64)
	// AddN records n observations of x (the fast-forward engine's bulk
	// insert, see ff.go).
	AddN(x float64, n int64)
	// N returns the number of observations.
	N() int
	// Mean returns the exact running mean (0 if empty).
	Mean() float64
	// Stddev returns the exact sample standard deviation.
	Stddev() float64
	// Min and Max return the exact extremes (0 if empty).
	Min() float64
	Max() float64
	// Percentile returns the q-th percentile (q in [0,100]).
	Percentile(q float64) float64
	// Percentiles evaluates many percentiles in one pass: one sort for
	// Sample, one cumulative bin walk per quantile for LogHistogram.
	Percentiles(qs ...float64) []float64
	// Reset discards every observation but keeps internal capacity, so a
	// warm-up boundary does not reallocate.
	Reset()
}

// Compile-time interface checks.
var (
	_ Quantiler = (*Sample)(nil)
	_ Quantiler = (*LogHistogram)(nil)
)

// LogHistogram is a constant-memory streaming quantile collector:
// observations land in geometrically-spaced bins, so the relative width of
// every bin — and therefore the worst-case relative percentile error — is
// fixed at construction. Mean, standard deviation, min and max stay exact
// (Welford accumulator and scalar extremes). The bin array is allocated by
// the first observation, so a collector nothing fills costs no bins, and
// is then fixed regardless of how many observations arrive: a collector's
// memory and its wire size do not grow with sim-time × flow count.
//
// Values below the floor (including zero — an empty queue has zero sojourn)
// are counted in a dedicated underflow bin and reported as the exact
// minimum, so their absolute error is bounded by the floor itself.
type LogHistogram struct {
	floor    float64 // lower edge of the first log bin
	logFloor float64 // ln(floor)
	logWidth float64 // ln(1 + relWidth): bin width in log space
	invWidth float64 // 1/logWidth

	// bins[0] is the underflow bin (x < floor); bins[i] (i >= 1) covers
	// [floor·g^(i-1), floor·g^i) with g = 1+relWidth. The last bin also
	// absorbs overflow. bins is nil until the first observation; nbins is
	// its length either way.
	bins  []int64
	nbins int
	tab   *binTable // shared edge table of this geometry; nil keeps the formula

	n        int64
	min, max float64
	w        Welford
}

// NewLogHistogram builds a histogram covering [floor, ceil] with bins of
// the given relative width (e.g. 0.02 for ~2% percentile resolution).
// It panics on a non-positive floor, a ceil not above floor, or a
// non-positive relative width — all construction-time programming errors.
func NewLogHistogram(floor, ceil, relWidth float64) *LogHistogram {
	if floor <= 0 || ceil <= floor || relWidth <= 0 {
		panic("stats: NewLogHistogram requires 0 < floor < ceil and relWidth > 0")
	}
	logWidth := math.Log1p(relWidth)
	nBins := int(math.Ceil(math.Log(ceil/floor)/logWidth)) + 1
	h := &LogHistogram{
		floor:    floor,
		logFloor: math.Log(floor),
		logWidth: logWidth,
		invWidth: 1 / logWidth,
		nbins:    1 + nBins,
	}
	h.tab = tableFor(h.geometry())
	return h
}

// NewDelayHistogram builds the collector every simulation uses for
// queue-delay, FCT, probability and utilization distributions: 1 µs floor,
// 10⁴ s ceiling, ~2% relative bin width (≈1200 bins, ~9 KB in memory and
// about one byte per bin on the wire — constant).
func NewDelayHistogram() *LogHistogram {
	return NewLogHistogram(1e-6, 1e4, 0.02)
}

// Add records one observation. Past the first it never allocates, and it
// takes no logarithm: the bin comes from the geometry's shared edge table.
// +Inf counts in the last (overflow) bin.
func (h *LogHistogram) Add(x float64) {
	h.extend(x)
	h.n++
	h.w.Add(x)
	h.bins[h.binOf(x)]++
}

// extend widens [min, max] to x. The first observation sets both, and
// allocates the bins if the histogram has none yet.
func (h *LogHistogram) extend(x float64) {
	if h.n == 0 {
		h.min, h.max = x, x
		if h.bins == nil {
			h.bins = make([]int64, h.nbins)
		}
	} else if x < h.min {
		h.min = x
	} else if x > h.max {
		h.max = x
	}
}

func (h *LogHistogram) geometry() binGeometry {
	return binGeometry{floor: h.floor, logFloor: h.logFloor, invWidth: h.invWidth, bins: h.nbins}
}

// binOf returns the bin of x: the underflow bin below the floor (and for
// NaN), else the edge table's bin, which is the formula's bin exactly.
func (h *LogHistogram) binOf(x float64) int {
	if !(x >= h.floor) {
		return 0
	}
	if h.tab != nil {
		return h.tab.bin(x)
	}
	return h.geometry().formulaBin(x)
}

// N returns the number of observations.
func (h *LogHistogram) N() int { return int(h.n) }

// Mean returns the exact mean (0 if empty).
func (h *LogHistogram) Mean() float64 { return h.w.Mean() }

// Stddev returns the exact sample standard deviation.
func (h *LogHistogram) Stddev() float64 { return h.w.Stddev() }

// Min returns the exact smallest observation (0 if empty).
func (h *LogHistogram) Min() float64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the exact largest observation (0 if empty).
func (h *LogHistogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the q-th percentile (q in [0,100]) with geometric
// interpolation inside the containing bin, clamped to the exact [min, max].
// The relative error is bounded by the construction-time bin width.
func (h *LogHistogram) Percentile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 100 {
		return h.max
	}
	target := q / 100 * float64(h.n)
	var cum float64
	for i, c := range h.bins {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			if i == 0 {
				// Underflow bin: everything here sits in [min, floor),
				// so min is within floor of the truth.
				return h.min
			}
			frac := (target - cum) / float64(c)
			v := math.Exp(h.logFloor + (float64(i-1)+frac)*h.logWidth)
			return h.clamp(v)
		}
		cum += float64(c)
	}
	return h.max
}

// Percentiles evaluates many percentiles; each costs one bin walk.
func (h *LogHistogram) Percentiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = h.Percentile(q)
	}
	return out
}

// Merge folds another histogram into h: bin counts add, the Welford
// moments combine exactly (Chan et al.), and min/max stay exact. Both
// histograms must share bin geometry (same floor, relative width and bin
// count — e.g. two NewDelayHistogram instances); merging mismatched
// geometries would silently misfile counts, so it panics instead.
func (h *LogHistogram) Merge(other *LogHistogram) {
	if other.floor != h.floor || other.logWidth != h.logWidth || other.nbins != h.nbins {
		panic("stats: LogHistogram.Merge requires identical bin geometry")
	}
	if other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	if h.bins == nil {
		h.bins = make([]int64, h.nbins)
	}
	for i, c := range other.bins {
		h.bins[i] += c
	}
	h.n += other.n
	h.w.Merge(other.w)
}

// Reset discards all observations; the bin array, if any, is kept and
// zeroed.
func (h *LogHistogram) Reset() {
	clear(h.bins)
	h.n = 0
	h.min = 0
	h.max = 0
	h.w = Welford{}
}

func (h *LogHistogram) clamp(v float64) float64 {
	if v < h.min {
		return h.min
	}
	if v > h.max {
		return h.max
	}
	return v
}
