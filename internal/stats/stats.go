// Package stats provides the measurement primitives the experiment harness
// uses: streaming mean/variance, exact percentile collectors, CDFs,
// fixed-interval time-series samplers and byte-rate meters.
package stats

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Welford accumulates a streaming mean and variance.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 if empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the sample variance (0 for fewer than two observations).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// Stddev returns the sample standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// Merge folds another accumulator into w using the parallel-variance
// combination (Chan et al.): the merged moments are exactly those of the
// concatenated observation streams, up to floating-point rounding.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	n := n1 + n2
	d := o.mean - w.mean
	w.mean += d * n2 / n
	w.m2 += o.m2 + d*d*n1*n2/n
	w.n += o.n
}

// Sample collects raw observations for exact percentiles.
// The zero value is ready to use.
//
// Add fills fixed chunks (64 floats, doubling to 8192): a chunk is never
// copied while it fills, where a plain append would copy every observation
// about five times on its way to a per-packet sojourn sample's final size.
// The first ordered read (Percentile, Percentiles, CDF, Values, Merge as
// the source) flattens the chunks once, in insertion order, onto xs, and
// the chunks are released; the observations' order, and so every sort and
// merge result, is exactly that of one appended slice. N, Mean and Stddev
// never flatten.
type Sample struct {
	xs     []float64   // flattened observations, in order (sorted if sorted)
	chunks [][]float64 // storage for later observations, each at full length
	live   int         // chunks in use: chunks[:live-1] full, then tail
	tail   []float64   // the filling chunk, chunks[live-1][:len(tail)]
	sorted bool
	w      Welford
}

const (
	firstChunk = 64
	maxChunk   = 8192 // 64 KB
)

// Add records one observation.
func (s *Sample) Add(x float64) {
	if len(s.tail) == cap(s.tail) {
		s.nextChunk()
	}
	s.tail = append(s.tail, x)
	s.sorted = false
	s.w.Add(x)
}

// nextChunk makes the next chunk the filling one: a chunk kept from before
// a Reset if there is one, else a new chunk twice the last one's size.
func (s *Sample) nextChunk() {
	if s.live == len(s.chunks) {
		size := firstChunk
		if s.live > 0 {
			size = min(2*len(s.chunks[s.live-1]), maxChunk)
		}
		s.chunks = append(s.chunks, make([]float64, size))
	}
	s.tail = s.chunks[s.live][:0]
	s.live++
}

// N returns the number of observations.
func (s *Sample) N() int { return int(s.w.N()) }

// Mean returns the mean of all observations (0 if empty).
func (s *Sample) Mean() float64 { return s.w.Mean() }

// Stddev returns the sample standard deviation.
func (s *Sample) Stddev() float64 { return s.w.Stddev() }

// pending counts the observations not yet flattened onto xs.
func (s *Sample) pending() int {
	if s.live == 0 {
		return 0
	}
	n := len(s.tail)
	for _, c := range s.chunks[:s.live-1] {
		n += len(c)
	}
	return n
}

// appendChunks appends the observations not yet flattened, in order.
func (s *Sample) appendChunks(dst []float64) []float64 {
	if s.live == 0 {
		return dst
	}
	for _, c := range s.chunks[:s.live-1] {
		dst = append(dst, c...)
	}
	return append(dst, s.tail...)
}

// flatten moves the chunked observations onto xs, growing xs to exactly
// the length needed, and releases the chunks.
func (s *Sample) flatten() {
	if s.live == 0 {
		return
	}
	if need := len(s.xs) + s.pending(); cap(s.xs) < need {
		s.xs = append(make([]float64, 0, need), s.xs...)
	}
	s.xs = s.appendChunks(s.xs)
	s.chunks, s.live, s.tail = nil, 0, nil
}

// Percentile returns the q-th percentile (q in [0,100]) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(q float64) float64 {
	if s.N() == 0 {
		return 0
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 100 {
		return s.xs[len(s.xs)-1]
	}
	pos := q / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Percentiles evaluates many percentiles with a single sort (Percentile
// alone also sorts lazily, but grouping the quantile family documents and
// guarantees the one-sort cost for reporting helpers).
func (s *Sample) Percentiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if s.N() == 0 {
		return out
	}
	s.sort()
	for i, q := range qs {
		out[i] = s.Percentile(q)
	}
	return out
}

// Reset discards every observation but keeps the chunks and the flattened
// array, so warm-up boundaries don't reallocate collectors mid-run.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.live, s.tail = 0, nil
	s.sorted = false
	s.w = Welford{}
}

// Min returns the smallest observation (0 if empty).
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation (0 if empty).
func (s *Sample) Max() float64 { return s.Percentile(100) }

// Merge incorporates every observation of other into s, in other's order.
func (s *Sample) Merge(other *Sample) {
	other.flatten()
	for _, x := range other.xs {
		s.Add(x)
	}
}

// Values returns a copy of the raw observations in insertion-or-sorted
// order (unspecified); callers must not rely on ordering.
func (s *Sample) Values() []float64 {
	s.flatten()
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

func (s *Sample) sort() {
	s.flatten()
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// CDF returns up to points (x, F(x)) pairs describing the empirical CDF.
func (s *Sample) CDF(points int) []CDFPoint {
	if s.N() == 0 || points <= 0 {
		return nil
	}
	s.sort()
	if points > len(s.xs) {
		points = len(s.xs)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * len(s.xs) / points
		if idx > len(s.xs) {
			idx = len(s.xs)
		}
		out = append(out, CDFPoint{X: s.xs[idx-1], F: float64(idx) / float64(len(s.xs))})
	}
	return out
}

// CDFPoint is one point of an empirical CDF: F = P[value <= X].
type CDFPoint struct {
	X float64
	F float64
}

// Summary formats n, mean and the common percentiles; used in reports.
func (s *Sample) Summary() string {
	return fmt.Sprintf("n=%d mean=%.4g p25=%.4g p50=%.4g p99=%.4g",
		s.N(), s.Mean(), s.Percentile(25), s.Percentile(50), s.Percentile(99))
}

// TimeSeries samples a value at fixed intervals of virtual time.
// The experiment drivers use 1 s sampling to match the paper's plots.
type TimeSeries struct {
	Interval time.Duration
	Times    []time.Duration
	Values   []float64
}

// Record appends one (t, v) sample.
func (ts *TimeSeries) Record(t time.Duration, v float64) {
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len returns the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.Values) }

// Max returns the largest recorded value (0 if empty).
func (ts *TimeSeries) Max() float64 {
	m := 0.0
	for _, v := range ts.Values {
		if v > m {
			m = v
		}
	}
	return m
}

// MaxAfter returns the largest value recorded at or after t.
func (ts *TimeSeries) MaxAfter(t time.Duration) float64 {
	m := 0.0
	for i, v := range ts.Values {
		if ts.Times[i] >= t && v > m {
			m = v
		}
	}
	return m
}

// MeanAfter returns the mean of values recorded at or after t.
func (ts *TimeSeries) MeanAfter(t time.Duration) float64 {
	var sum float64
	var n int
	for i, v := range ts.Values {
		if ts.Times[i] >= t {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RateMeter integrates bytes over virtual time to yield bit rates.
type RateMeter struct {
	bytes     int64
	lastReset time.Duration
}

// Add accounts for n bytes delivered.
func (r *RateMeter) Add(n int) { r.bytes += int64(n) }

// Bytes returns the byte count since the last reset.
func (r *RateMeter) Bytes() int64 { return r.bytes }

// RateBps returns the average rate in bits/s between the last reset and now.
func (r *RateMeter) RateBps(now time.Duration) float64 {
	dt := (now - r.lastReset).Seconds()
	if dt <= 0 {
		return 0
	}
	return float64(r.bytes) * 8 / dt
}

// Reset zeroes the meter and starts a new measurement window at now.
func (r *RateMeter) Reset(now time.Duration) {
	r.bytes = 0
	r.lastReset = now
}

// JainIndex computes Jain's fairness index (Σx)²/(n·Σx²) over allocations:
// 1 for perfectly equal shares, 1/n when one participant takes everything.
// Used by the coexistence experiments to summarize per-flow rates.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}
