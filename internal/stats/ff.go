package stats

// This file holds the bulk-insert fast paths the fast-forward engine uses:
// an analytically advanced epoch contributes thousands of equal-valued
// observations (e.g. "the queue delay held at 21 ms while 40k packets
// drained"), and inserting them one Add at a time would erase much of the
// epoch's speedup. AddN incorporates n copies of one value in O(1).

// AddN incorporates n observations of the same value x in O(1): n copies of
// x form a sub-stream with mean x and zero variance, so the parallel-moment
// combination (Chan et al.) applies with m2 = 0. Exactly equivalent to
// calling Add(x) n times, up to floating-point rounding.
func (w *Welford) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	w.Merge(Welford{n: n, mean: x})
}

// AddN records n observations of x. Past the histogram's first
// observation it stays allocation-free: one bin increment, one Welford
// merge, one min/max update.
func (h *LogHistogram) AddN(x float64, n int64) {
	if n <= 0 {
		return
	}
	h.extend(x)
	h.n += n
	h.w.AddN(x, n)
	h.bins[h.binOf(x)] += n
}

// AddN records n observations of x on the exact collector. Unlike the
// histogram this appends n entries (the Sample's contract is to hold every
// observation); non-compact fast-forward runs accept that memory cost.
func (s *Sample) AddN(x float64, n int64) {
	for ; n > 0; n-- {
		s.Add(x)
	}
}
