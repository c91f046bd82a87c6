package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestLogHistogramConstructorPanics(t *testing.T) {
	for _, tc := range []struct {
		name             string
		floor, ceil, rel float64
	}{
		{"zero floor", 0, 1, 0.02},
		{"negative floor", -1, 1, 0.02},
		{"ceil below floor", 1, 0.5, 0.02},
		{"zero width", 1e-6, 1, 0},
		{"negative width", 1e-6, 1, -0.1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewLogHistogram(%g, %g, %g) did not panic", tc.floor, tc.ceil, tc.rel)
				}
			}()
			NewLogHistogram(tc.floor, tc.ceil, tc.rel)
		})
	}
}

func TestLogHistogramEmpty(t *testing.T) {
	h := NewDelayHistogram()
	if h.N() != 0 || h.Mean() != 0 || h.Stddev() != 0 || h.Percentile(50) != 0 {
		t.Fatalf("empty histogram not zero-valued: n=%d mean=%g", h.N(), h.Mean())
	}
}

func TestLogHistogramExactScalars(t *testing.T) {
	// Mean, stddev, min, max, and N are tracked exactly (Welford + scalars),
	// so they must agree with the exact Sample to float precision, not just
	// within the bin width.
	h := NewDelayHistogram()
	s := &Sample{}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		x := math.Exp(rng.NormFloat64()*2 - 8) // log-normal around ~0.3 ms
		h.Add(x)
		s.Add(x)
	}
	if h.N() != s.N() {
		t.Fatalf("N: %d vs %d", h.N(), s.N())
	}
	if math.Abs(h.Mean()-s.Mean()) > 1e-12*math.Abs(s.Mean()) {
		t.Errorf("mean: %g vs %g", h.Mean(), s.Mean())
	}
	if math.Abs(h.Stddev()-s.Stddev()) > 1e-9*s.Stddev() {
		t.Errorf("stddev: %g vs %g", h.Stddev(), s.Stddev())
	}
	if h.Min() != s.Min() || h.Max() != s.Max() {
		t.Errorf("min/max: %g/%g vs %g/%g", h.Min(), h.Max(), s.Min(), s.Max())
	}
}

func TestLogHistogramPercentilesVsExact(t *testing.T) {
	// Percentiles come from the binned counts, so the contract is the bin's
	// relative width (2%), checked against the exact collector across
	// distributions with very different shapes.
	dists := map[string]func(*rand.Rand) float64{
		"uniform":   func(r *rand.Rand) float64 { return 1e-4 + r.Float64()*0.1 },
		"lognormal": func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()*1.5 - 6) },
		"exp":       func(r *rand.Rand) float64 { return r.ExpFloat64() * 0.02 },
		"bimodal": func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return 1e-3 + r.Float64()*1e-4
			}
			return 0.5 + r.Float64()*0.05
		},
	}
	for name, gen := range dists {
		t.Run(name, func(t *testing.T) {
			h := NewDelayHistogram()
			s := &Sample{}
			rng := rand.New(rand.NewSource(42))
			// Enough samples that even at p99.9 the gap between adjacent
			// order statistics is below the bin width — otherwise the two
			// collectors' different interpolation rules dominate the error.
			for i := 0; i < 200000; i++ {
				x := gen(rng)
				h.Add(x)
				s.Add(x)
			}
			for _, q := range []float64{1, 5, 25, 50, 75, 90, 95, 99, 99.9} {
				exact := s.Percentile(q)
				approx := h.Percentile(q)
				if exact <= 0 {
					continue
				}
				// One bin of relative error plus interpolation slack against
				// the exact collector's own between-sample interpolation.
				if rel := math.Abs(approx-exact) / exact; rel > 0.021 {
					t.Errorf("p%.1f: histogram %g vs exact %g (rel err %.4f)", q, approx, exact, rel)
				}
			}
			// Percentiles must agree with one-at-a-time Percentile calls.
			qs := []float64{50, 99}
			got := h.Percentiles(qs...)
			for i, q := range qs {
				if got[i] != h.Percentile(q) {
					t.Errorf("Percentiles(%v)[%d] = %g != Percentile(%g) = %g", qs, i, got[i], q, h.Percentile(q))
				}
			}
		})
	}
}

func TestLogHistogramUnderflow(t *testing.T) {
	// Values below the floor (including zero) land in the underflow bin and
	// report the exact minimum, bounding absolute error by the floor itself.
	h := NewLogHistogram(1e-6, 1, 0.02)
	h.Add(0)
	h.Add(2e-7)
	h.Add(5e-7)
	if h.N() != 3 {
		t.Fatalf("N = %d", h.N())
	}
	if got := h.Percentile(50); got != 0 {
		t.Errorf("p50 of all-underflow = %g, want exact min 0", got)
	}
	if h.Min() != 0 || h.Max() != 5e-7 {
		t.Errorf("min/max = %g/%g", h.Min(), h.Max())
	}
}

func TestLogHistogramClamp(t *testing.T) {
	// Values beyond the ceiling go in the last bin, and reported quantiles
	// never escape the observed [min, max] range.
	h := NewLogHistogram(1e-6, 1, 0.02)
	h.Add(50) // above ceil
	h.Add(2e-6)
	if got := h.Percentile(100); got != 50 {
		t.Errorf("p100 = %g, want clamp to max 50", got)
	}
	if got := h.Percentile(0); got < 2e-6*0.98 || got > 2e-6*1.02 {
		t.Errorf("p0 = %g, want ~2e-6", got)
	}
}

func TestLogHistogramReset(t *testing.T) {
	h := NewDelayHistogram()
	for i := 0; i < 100; i++ {
		h.Add(float64(i+1) * 1e-4)
	}
	h.Reset()
	if h.N() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Fatalf("Reset left state behind: n=%d mean=%g", h.N(), h.Mean())
	}
	h.Add(0.5)
	if got := h.Percentile(50); math.Abs(got-0.5)/0.5 > 0.02 {
		t.Fatalf("post-Reset p50 = %g, want ~0.5", got)
	}
}

func TestLogHistogramAddDoesNotAllocate(t *testing.T) {
	h := NewDelayHistogram()
	x := 1e-3
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Add(x)
		x *= 1.000001
	}); allocs != 0 {
		t.Fatalf("Add allocates %.1f times per call, want 0", allocs)
	}
}

func TestQuantilerInterfaceParity(t *testing.T) {
	// Both implementations must satisfy the shared interface and agree on
	// the trivial single-value case.
	for _, q := range []Quantiler{&Sample{}, NewDelayHistogram()} {
		q.Add(0.25)
		if q.N() != 1 {
			t.Fatalf("%T: N = %d", q, q.N())
		}
		if got := q.Percentile(50); math.Abs(got-0.25)/0.25 > 0.02 {
			t.Fatalf("%T: p50 = %g", q, got)
		}
		if got := q.Mean(); got != 0.25 {
			t.Fatalf("%T: mean = %g", q, got)
		}
	}
}

func TestWelfordMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var a, b, pooled Welford
	for i := 0; i < 1000; i++ {
		x := rng.ExpFloat64() * 3
		a.Add(x)
		pooled.Add(x)
	}
	for i := 0; i < 1700; i++ {
		x := rng.NormFloat64()*2 + 10
		b.Add(x)
		pooled.Add(x)
	}
	a.Merge(b)
	if a.N() != pooled.N() {
		t.Fatalf("merged n=%d, pooled n=%d", a.N(), pooled.N())
	}
	if d := math.Abs(a.Mean() - pooled.Mean()); d > 1e-9 {
		t.Errorf("merged mean %v vs pooled %v", a.Mean(), pooled.Mean())
	}
	if d := math.Abs(a.Var() - pooled.Var()); d > 1e-6*pooled.Var() {
		t.Errorf("merged var %v vs pooled %v", a.Var(), pooled.Var())
	}

	// Merging into or from an empty accumulator must be exact.
	var empty Welford
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() || empty.Var() != a.Var() {
		t.Error("merge into empty accumulator not identity")
	}
	before := a
	a.Merge(Welford{})
	if a != before {
		t.Error("merging an empty accumulator changed the receiver")
	}
}

func TestLogHistogramMergeMatchesPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ha := NewDelayHistogram()
	hb := NewDelayHistogram()
	pooledH := NewDelayHistogram()
	var exact Sample
	for i := 0; i < 4000; i++ {
		x := rng.ExpFloat64() * 0.02 // exponential delays around 20 ms
		ha.Add(x)
		pooledH.Add(x)
		exact.Add(x)
	}
	for i := 0; i < 2500; i++ {
		x := math.Abs(rng.NormFloat64())*0.001 + 1e-7 // some below the 1 µs floor
		hb.Add(x)
		pooledH.Add(x)
		exact.Add(x)
	}
	ha.Merge(hb)

	if ha.N() != pooledH.N() {
		t.Fatalf("merged n=%d, pooled n=%d", ha.N(), pooledH.N())
	}
	if ha.Min() != pooledH.Min() || ha.Max() != pooledH.Max() {
		t.Errorf("merged min/max %v/%v vs pooled %v/%v",
			ha.Min(), ha.Max(), pooledH.Min(), pooledH.Max())
	}
	if d := math.Abs(ha.Mean() - exact.Mean()); d > 1e-12+1e-9*exact.Mean() {
		t.Errorf("merged mean %v vs exact %v", ha.Mean(), exact.Mean())
	}
	if d := math.Abs(ha.Stddev() - exact.Stddev()); d > 1e-9*exact.Stddev() {
		t.Errorf("merged stddev %v vs exact %v", ha.Stddev(), exact.Stddev())
	}
	// Percentiles of the merged histogram must match a histogram that saw
	// the pooled stream bin-for-bin, and track the exact sample within the
	// construction-time relative width.
	for _, q := range []float64{1, 25, 50, 90, 99, 99.9} {
		m, p := ha.Percentile(q), pooledH.Percentile(q)
		if m != p {
			t.Errorf("p%g: merged %v != pooled-stream %v", q, m, p)
		}
		e := exact.Percentile(q)
		if e > 2e-6 { // skip sub-floor values: absolute error bounded by floor
			if rel := math.Abs(m-e) / e; rel > 0.03 {
				t.Errorf("p%g: merged %v vs exact %v (rel err %.3f)", q, m, e, rel)
			}
		}
	}
}

func TestLogHistogramMergeGeometryMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("merging mismatched geometries did not panic")
		}
	}()
	NewLogHistogram(1e-6, 1e4, 0.02).Merge(NewLogHistogram(1e-6, 1e4, 0.05))
}

// TestLogHistogramAddInf pins +Inf to the overflow bin (the bare formula's
// int(+Inf) indexed out of range) and NaN to the underflow bin, where the
// formula's x >= floor test has always sent it.
func TestLogHistogramAddInf(t *testing.T) {
	h := NewDelayHistogram()
	h.Add(math.Inf(1))
	h.AddN(math.Inf(1), 2)
	h.Add(math.NaN())
	if last := len(h.bins) - 1; h.bins[last] != 3 || h.bins[0] != 1 {
		t.Fatalf("overflow bin %d, underflow bin %d; want 3 and 1", h.bins[last], h.bins[0])
	}
	if h.N() != 4 || !math.IsInf(h.Max(), 1) {
		t.Fatalf("N = %d, Max = %v", h.N(), h.Max())
	}
	g := h.geometry()
	g.bins = maxTableBins + 1 // too fine to tabulate: the formula path
	if got := g.formulaBin(math.Inf(1)); got != g.bins-1 {
		t.Fatalf("formula files +Inf in bin %d, want %d", got, g.bins-1)
	}
}
