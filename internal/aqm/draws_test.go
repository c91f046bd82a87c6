package aqm

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// alfg is math/rand's additive lagged-Fibonacci source rebuilt over a
// chosen first block: it yields blk, then continues the recurrence exactly
// as math/rand's rngSource does. It is the reference for blocks math/rand
// cannot be made to produce, such as one holding a redraw value.
type alfg struct {
	vec [alfgLen]uint64 // x[n] is in vec[n mod 607] until x[n+607] replaces it
	n   int
}

func newALFG(blk [alfgLen]uint64) *alfg { return &alfg{vec: blk} }

func (a *alfg) Uint64() uint64 {
	k := a.n % alfgLen
	if a.n >= alfgLen {
		a.vec[k] += a.vec[(a.n-alfgTap)%alfgLen]
	}
	a.n++
	return a.vec[k]
}

func (a *alfg) Int63() int64 { return int64(a.Uint64() & mask63) }
func (a *alfg) Seed(int64)   { panic("alfg: Seed") }

// counter is a Source that is not a lagged-Fibonacci generator.
type counter struct{ n int64 }

func (c *counter) Int63() int64 { c.n++; return c.n }
func (c *counter) Seed(int64)   {}

// checkAgainst draws the same decisions from d and from ref, packet by
// packet on ref's side: Float64 values, one-draw hits against p and
// squared (two-draw, short-circuit) hits, for p from pick and batch sizes
// from size. It fails on the first disagreement.
func checkAgainst(t *testing.T, name string, d *Draws, ref *rand.Rand, draws int, pick func(int) float64, size func(int) int) {
	t.Helper()
	for k := 0; draws > 0; k++ {
		p, n := pick(k), size(k)
		var want, got int
		switch k % 3 {
		case 0: // Float64, and v < T through a one-draw batch
			for i := 0; i < n; i++ {
				w := ref.Float64()
				if g := d.Float64(); g != w {
					t.Fatalf("%s draw %d: Float64 = %v, math/rand %v", name, k, g, w)
				}
				if ref.Float64() < p {
					want++
				}
				got += d.Hits(p, 1)
			}
			draws -= 2 * n
		case 1: // Scalable: n draws against p
			for i := 0; i < n; i++ {
				if ref.Float64() < p {
					want++
				}
			}
			got = d.Hits(p, n)
			draws -= n
		default: // Classic hardware square
			for i := 0; i < n; i++ {
				if ref.Float64() < p && ref.Float64() < p {
					want++
				}
			}
			got = d.SquaredHits(p, n)
			draws -= n
		}
		if got != want {
			t.Fatalf("%s step %d (form %d, p=%v, n=%d): %d hits, math/rand %d", name, k, k%3, p, n, got, want)
		}
	}
	if a, b := d.Float64(), ref.Float64(); a != b {
		t.Fatalf("%s: next draw diverged: %v vs %v", name, a, b)
	}
}

// TestDrawsMatchMathRand replays 50 seeds' streams, 10⁵ draws each, through
// every form against math/rand decided packet by packet, with
// probabilities spread over (0, 1) and batch sizes from 1 to 64.
func TestDrawsMatchMathRand(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		d := NewDraws(rand.New(rand.NewSource(seed)))
		ref := rand.New(rand.NewSource(seed))
		shape := rand.New(rand.NewSource(-seed))
		probs := []float64{0, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.9, 1, shape.Float64(), shape.Float64()}
		checkAgainst(t, "seed", &d, ref, 100000,
			func(int) float64 { return probs[shape.Intn(len(probs))] },
			func(int) int { return 1 + shape.Intn(64) })
	}
}

// TestDrawsRedraw seeds the first block with values whose Float64 would
// round to 1.0 — at the start, in a pair, mid-block and at the block's
// last two slots — and replays it against math/rand's Float64 over the same
// recurrence, which redraws them.
func TestDrawsRedraw(t *testing.T) {
	var blk [alfgLen]uint64
	r := rand.New(rand.NewSource(3))
	for k := range blk {
		blk[k] = r.Uint64()
	}
	for _, k := range []int{0, 1, 2, 100, 300, 605, 606} {
		blk[k] = redraw + uint64(k) // ≥ redraw in the low 63 bits
	}
	blk[301] = 1<<63 | redraw // the top bit is masked off
	blk[302] = redraw - 1     // the last value that is kept
	for _, p := range []float64{0.2, 0.7, 1} {
		d := NewDraws(rand.New(newALFG(blk)))
		ref := rand.New(newALFG(blk))
		checkAgainst(t, "redraw", &d, ref, 5000,
			func(int) float64 { return p },
			func(k int) int { return 1 + k%9 })
	}
}

// TestDrawsRejectForeignSource: a source that does not continue the
// recurrence fails loudly when the first block is taken, not with a wrong
// stream later; a nil source defers that to the first draw.
func TestDrawsRejectForeignSource(t *testing.T) {
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "lagged-Fibonacci") {
			t.Fatalf("recovered %v, want the self-check panic", r)
		}
	}()
	_ = NewDraws(nil)
	_ = NewDraws(rand.New(&counter{}))
	t.Fatal("no panic")
}

// boundaryProbs are the probabilities where an integer threshold could
// be off by one: zero, NaN, subnormals, 2⁻⁶³·v for v next to powers of two
// and next to the redraw band, one and above.
func boundaryProbs() []float64 {
	ps := []float64{0, math.Copysign(0, -1), math.NaN(), -1, math.SmallestNonzeroFloat64,
		0x1p-1060, 0x1p-1022, 0x1p-64, 0x1p-63, 1, math.Nextafter(1, 0), 1.5, math.Inf(1), math.Inf(-1)}
	scaled := func(v uint64) float64 { return float64(v) / (1 << 63) }
	for e := uint(0); e < 63; e++ {
		for _, v := range []uint64{1<<e - 1, 1 << e, 1<<e + 1} {
			ps = append(ps, scaled(v), math.Nextafter(scaled(v), 0), math.Nextafter(scaled(v), 2))
		}
	}
	for _, v := range []uint64{redraw - 1025, redraw - 1024, redraw - 513, redraw - 512, redraw - 1, redraw, redraw + 1} {
		ps = append(ps, scaled(v), math.Nextafter(scaled(v), 0))
	}
	return ps
}

// checkThreshold asserts float64(v)/2⁶³ < p ⇔ v < T(p) for v.
func checkThreshold(t *testing.T, p float64, v uint64) {
	t.Helper()
	if v >= redraw {
		return
	}
	T := thresholdOf(p)
	if got, want := v < T, float64(v)/(1<<63) < p; got != want {
		t.Fatalf("p=%v (%x) v=%d: v < T(p)=%d is %v, Float64 < p is %v", p, math.Float64bits(p), v, T, got, want)
	}
}

// TestThresholdBoundaries checks each boundary probability's threshold at
// and around itself, at both ends of the valid range, and next to every
// power of two.
func TestThresholdBoundaries(t *testing.T) {
	for _, p := range boundaryProbs() {
		T := thresholdOf(p)
		vs := []uint64{0, 1, redraw - 1}
		for d := uint64(0); d < 4; d++ {
			vs = append(vs, T+d, T-d)
		}
		for e := uint(0); e < 63; e++ {
			vs = append(vs, 1<<e-1, 1<<e, 1<<e+1)
		}
		for _, v := range vs {
			checkThreshold(t, p, v)
		}
	}
}

// FuzzThreshold: for any p and any valid 63-bit draw v, the integer
// comparison decides exactly as the float one. The seeds are the boundary
// table, so a plain test run replays them.
func FuzzThreshold(f *testing.F) {
	for _, p := range boundaryProbs() {
		T := thresholdOf(p)
		f.Add(p, T)
		f.Add(p, T-1)
	}
	f.Fuzz(func(t *testing.T, p float64, v uint64) {
		v &= mask63
		checkThreshold(t, p, v)
		T := thresholdOf(p)
		checkThreshold(t, p, T)
		checkThreshold(t, p, T-1)
	})
}
