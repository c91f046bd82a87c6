package stats

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// sliceSample is the exact collector as one appended slice: the storage
// Sample had before it filled chunks. The chunked Sample must be
// indistinguishable from it bit for bit.
type sliceSample struct {
	xs     []float64
	sorted bool
	w      Welford
}

func (s *sliceSample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
	s.w.Add(x)
}

func (s *sliceSample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

func (s *sliceSample) Percentile(q float64) float64 {
	if len(s.xs) == 0 {
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

func (s *sliceSample) CDF(points int) []CDFPoint {
	if len(s.xs) == 0 || points <= 0 {
		return nil
	}
	s.sort()
	if points > len(s.xs) {
		points = len(s.xs)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * len(s.xs) / points
		out = append(out, CDFPoint{X: s.xs[idx-1], F: float64(idx) / float64(len(s.xs))})
	}
	return out
}

func (s *sliceSample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = false
	s.w = Welford{}
}

func (s *sliceSample) Merge(other *sliceSample) {
	for _, x := range other.xs {
		s.Add(x)
	}
}

func (s *sliceSample) gob(t *testing.T) []byte {
	b, err := gobBytes(sampleWire{Xs: s.xs, Sorted: s.sorted, W: s.w})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// samplePair is one chunked Sample and its slice twin, fed identically.
type samplePair struct {
	s   *Sample
	ref *sliceSample
}

func (p samplePair) add(rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		var x float64
		switch rng.Intn(16) {
		case 0:
			x = 0
		case 1:
			x = math.Copysign(0, -1) // ±0 tie: sort order depends on input order
		case 2:
			x = float64(rng.Intn(4)) * 1e-3 // duplicates
		default:
			x = rng.ExpFloat64() * 0.01
		}
		p.s.Add(x)
		p.ref.Add(x)
	}
}

// burst draws an insert size that often lands just around a chunk boundary
// (64, 192, 448, ... cumulative) or spans several chunks.
func burst(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return rng.Intn(8)
	case 1:
		return 64<<rng.Intn(8) - 64 + rng.Intn(5) - 2
	case 2:
		return rng.Intn(300)
	default:
		return rng.Intn(40000)
	}
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (p samplePair) check(t *testing.T, step int, op string) {
	t.Helper()
	if p.s.N() != len(p.ref.xs) || !sameFloat(p.s.Mean(), p.ref.w.Mean()) || !sameFloat(p.s.Stddev(), p.ref.w.Stddev()) {
		t.Fatalf("step %d (%s): N/Mean/Stddev %d/%v/%v, slice %d/%v/%v", step, op,
			p.s.N(), p.s.Mean(), p.s.Stddev(), len(p.ref.xs), p.ref.w.Mean(), p.ref.w.Stddev())
	}
}

// TestSampleMatchesSliceSample drives a chunked Sample and the one-slice
// reference through random Add bursts (across chunk boundaries), Reset,
// Percentile(s), CDF, Values, Merge (into, from and with itself) and gob
// round trips, and requires every output and every encoded byte to match.
func TestSampleMatchesSliceSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	newPair := func() samplePair { return samplePair{&Sample{}, &sliceSample{}} }
	for seq := 0; seq < 40; seq++ {
		p := newPair()
		for step := 0; step < 30; step++ {
			var op string
			switch rng.Intn(9) {
			case 0, 1, 2:
				op = "add"
				p.add(rng, burst(rng))
			case 3:
				op = "reset"
				p.s.Reset()
				p.ref.Reset()
			case 4:
				op = "percentile"
				qs := []float64{0, 100, rng.Float64() * 100, 99, 50}
				got := p.s.Percentiles(qs...)
				for i, q := range qs {
					if want := p.ref.Percentile(q); !sameFloat(got[i], want) || !sameFloat(p.s.Percentile(q), want) {
						t.Fatalf("seq %d step %d: p%v = %v, slice %v", seq, step, q, got[i], want)
					}
				}
			case 5:
				op = "cdf"
				pts := rng.Intn(300)
				got, want := p.s.CDF(pts), p.ref.CDF(pts)
				if len(got) != len(want) {
					t.Fatalf("seq %d step %d: CDF(%d) has %d points, slice %d", seq, step, pts, len(got), len(want))
				}
				for i := range got {
					if !sameFloat(got[i].X, want[i].X) || !sameFloat(got[i].F, want[i].F) {
						t.Fatalf("seq %d step %d: CDF point %d = %v, slice %v", seq, step, i, got[i], want[i])
					}
				}
			case 6:
				op = "merge"
				o := newPair()
				o.add(rng, burst(rng))
				if rng.Intn(2) == 0 {
					o.s.Percentile(50)
					o.ref.Percentile(50)
					o.add(rng, rng.Intn(100))
				}
				if rng.Intn(4) == 0 {
					o = p // self-merge
				}
				p.s.Merge(o.s)
				p.ref.Merge(o.ref)
			case 7:
				op = "gob"
				b := p.ref.gob(t)
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(p.s); err != nil {
					t.Fatal(err)
				}
				enc, err := p.s.GobEncode()
				if err != nil || !bytes.Equal(enc, b) {
					t.Fatalf("seq %d step %d: GobEncode differs from the slice encoding (err %v)", seq, step, err)
				}
				var got Sample
				if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
					t.Fatal(err)
				}
				p.s = &got
			default:
				op = "values"
				got := p.s.Values()
				if len(got) != len(p.ref.xs) {
					t.Fatalf("seq %d step %d: %d values, slice %d", seq, step, len(got), len(p.ref.xs))
				}
				for i := range got {
					if !sameFloat(got[i], p.ref.xs[i]) {
						t.Fatalf("seq %d step %d: value %d = %v, slice %v", seq, step, i, got[i], p.ref.xs[i])
					}
				}
			}
			p.check(t, step, op)
		}
	}
}

// TestSampleResetReusesChunks pins the warm-up contract: refilling a Reset
// sample up to its previous size allocates nothing.
func TestSampleResetReusesChunks(t *testing.T) {
	var s Sample
	for i := 0; i < 50000; i++ {
		s.Add(float64(i))
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		for i := 0; i < 50000; i++ {
			s.Add(float64(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("refill after Reset allocates %.1f times, want 0", allocs)
	}
}

// TestSampleAddNeverCopies bounds the bytes a growing sample allocates:
// chunks are never copied while they fill, so 1M observations cost about
// one 8 MB pass of storage, where append growth copies each one ~5 times.
func TestSampleAddNeverCopies(t *testing.T) {
	const n = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s Sample
	for i := 0; i < n; i++ {
		s.Add(float64(i))
	}
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(n*8*11/10); got > limit {
		t.Fatalf("%d observations allocated %d bytes, want <= %d", n, got, limit)
	}
	if s.N() != n || s.Percentile(100) != n-1 {
		t.Fatalf("N = %d, max = %v", s.N(), s.Percentile(100))
	}
}
