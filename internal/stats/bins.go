package stats

import (
	"math"
	"sync"
)

// LogHistogram.Add runs once per forwarded packet, where one math.Log per
// observation would cost more than the AQM decision it measures. A
// binTable finds the bin with a table load and one or two float compares,
// and files every value exactly where the formula
//
//	1 + int((math.Log(x) - logFloor) * invWidth)
//
// does: each bin's lower edge is found by bisecting the float64 bit
// patterns against that same formula, so the table is a precomputed image
// of it, not an approximation. Tables are immutable and shared by every
// histogram of the same geometry, so only the first histogram of a geometry
// in a process pays the build (≈ 1200 edges for NewDelayHistogram).

// binGeometry is everything the bin formula reads. Histograms built by
// NewLogHistogram derive logFloor and invWidth from floor and the relative
// width, but a gob-decoded one carries them as sent, so they are part of
// the key.
type binGeometry struct {
	floor, logFloor, invWidth float64
	bins                      int // len(LogHistogram.bins), underflow bin included
}

// formulaBin is the reference filing of x >= floor: the log-space formula,
// clamped to the last (overflow) bin. +Inf lands in the overflow bin; the
// bare int conversion of +Inf is implementation-defined (math.MinInt64 on
// amd64) and would index out of range.
func (g binGeometry) formulaBin(x float64) int {
	v := (math.Log(x) - g.logFloor) * g.invWidth
	if v >= float64(g.bins-1) {
		return g.bins - 1
	}
	return 1 + int(v)
}

// guessShift keeps a float64's exponent and its top 7 mantissa bits. One
// key then spans a relative width of at most 2⁻⁷ (0.8 %), less than a 2 %
// bin, so a key's range holds at most one bin edge.
const guessShift = 52 - 7

// maxTableBins bounds the table's size; finer geometries keep the formula.
const maxTableBins = 1 << 16

// binTable files x >= floor in O(1) without math.Log.
type binTable struct {
	// edges[i] (1 <= i < bins) is the smallest float64 the formula files in
	// bin i or above; edges[bins] is NaN, a sentinel no x compares >= to.
	// Empty bins (finer than one ulp) repeat their successor's edge.
	edges []float64
	// guess[k] is the bin of the smallest float64 >= floor whose bits>>
	// guessShift equal keyLo+k; keys past the last edge's key are overflow.
	keyLo uint64
	guess []int32
}

var binTables sync.Map // binGeometry -> *binTable

// tableFor returns the shared table of g, building it on first use, or nil
// when g is too fine to tabulate (Add then keeps the formula).
func tableFor(g binGeometry) *binTable {
	if g.bins < 2 || g.bins > maxTableBins || !finitePositive(g.floor) ||
		!finitePositive(g.invWidth) || math.IsNaN(g.logFloor) || math.IsInf(g.logFloor, 0) {
		return nil
	}
	if t, ok := binTables.Load(g); ok {
		return t.(*binTable)
	}
	t, _ := binTables.LoadOrStore(g, buildBinTable(g))
	return t.(*binTable)
}

func finitePositive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

func buildBinTable(g binGeometry) *binTable {
	last := g.bins - 1
	edges := make([]float64, g.bins+1)
	edges[1] = g.floor // formulaBin(floor) == 1: Log(floor) - logFloor is 0
	for i := 2; i <= last; i++ {
		edges[i] = firstInBin(g, i, edges[i-1])
	}
	edges[g.bins] = math.NaN()

	keyLo := math.Float64bits(g.floor) >> guessShift
	keyHi := math.Float64bits(edges[last]) >> guessShift
	guess := make([]int32, keyHi-keyLo+1)
	bin := 1
	for k := range guess {
		x := math.Float64frombits((keyLo + uint64(k)) << guessShift)
		for bin < last && x >= edges[bin+1] {
			bin++
		}
		guess[k] = int32(bin)
	}
	return &binTable{edges: edges, keyLo: keyLo, guess: guess}
}

// firstInBin returns the smallest float64 x > prev with formulaBin(x) >= i,
// given formulaBin(prev) < i, by bisecting the bit patterns between prev
// and +Inf (which the formula files in the last bin): positive float64s
// order like their bits, and the formula is monotone in x.
func firstInBin(g binGeometry, i int, prev float64) float64 {
	lo, hi := math.Float64bits(prev), math.Float64bits(math.Inf(1))
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if g.formulaBin(math.Float64frombits(mid)) >= i {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Float64frombits(hi)
}

// bin files x >= floor: one guess load, then at most one or two edge
// compares (at most one edge falls inside a key's range for bins wider than
// 0.8 %). Keys past the table are above the last edge: the overflow bin.
func (t *binTable) bin(x float64) int {
	k := math.Float64bits(x)>>guessShift - t.keyLo
	if k >= uint64(len(t.guess)) {
		return len(t.edges) - 2
	}
	i := int(t.guess[k])
	for x >= t.edges[i+1] {
		i++
	}
	return i
}
