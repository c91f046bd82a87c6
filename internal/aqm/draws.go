package aqm

import "math/rand"

// Draws is an AQM's uniform random stream: exactly the values of the
// *rand.Rand it is built over, which nothing else may draw from afterwards.
// It takes the generator's next 607 outputs and then continues math/rand's
// additive lagged-Fibonacci recurrence x[n] = x[n−607] + x[n−273] (mod 2⁶⁴)
// itself, a block at a time, so a draw is an array read and Hits and
// SquaredHits decide a run of packets against one integer threshold without
// a branch per packet. DESIGN.md ("Hybrid fluid/packet architecture") has
// the equivalence argument.
type Draws struct {
	src    *rand.Rand // until the first block is taken
	loaded bool
	i      int // next unread value in blk; alfgLen when it is spent
	blk    [alfgLen]uint64
	// Thresholds for the last two probabilities, most recent first: an
	// AQM's probabilities move only at its periodic update.
	tp [2]float64
	tt [2]uint64
}

const (
	alfgLen, alfgTap = 607, 273
	mask63           = 1<<63 - 1
	// redraw is the first 63-bit value whose Float64 rounds to 1.0, which
	// math/rand draws again; Draws skips every value at or above it.
	redraw = 1<<63 - 512
)

// NewDraws returns the stream of src, taking its first block now so the
// load is part of building the AQM, not of its first decision. A nil src
// defers the load to the first draw.
func NewDraws(src *rand.Rand) Draws {
	d := Draws{src: src, i: alfgLen}
	if src != nil {
		d.refill()
	}
	return d
}

// Float64 returns what src.Float64() would.
func (d *Draws) Float64() float64 { return float64(d.next()) / (1 << 63) }

// Hits makes n decisions Float64() < p and counts those that hit.
func (d *Draws) Hits(p float64, n int) (hits int) {
	t, i := d.threshold(p), d.i
	for ; n > 0; n-- {
		if i < alfgLen {
			if v := d.blk[i] & mask63; v < redraw {
				hits += int((v - t) >> 63)
				i++
				continue
			}
		}
		d.i = i
		hits += int((d.next() - t) >> 63)
		i = d.i
	}
	d.i = i
	return hits
}

// SquaredHits makes n decisions Float64() < p && Float64() < p, the second
// draw taken only after a first hit, and counts those that hit twice.
func (d *Draws) SquaredHits(p float64, n int) (hits int) {
	t, i := d.threshold(p), d.i
	for ; n > 0; n-- {
		if i+1 < alfgLen {
			if v1, v2 := d.blk[i]&mask63, d.blk[i+1]&mask63; max(v1, v2) < redraw {
				h1, h2 := (v1-t)>>63, (v2-t)>>63
				i += int(1 + h1)
				hits += int(h1 & h2)
				continue
			}
		}
		d.i = i
		if d.next() < t && d.next() < t {
			hits++
		}
		i = d.i
	}
	d.i = i
	return hits
}

// next returns the next value below redraw.
func (d *Draws) next() uint64 {
	for {
		if d.i == alfgLen {
			d.refill()
		}
		v := d.blk[d.i] & mask63
		d.i++
		if v < redraw {
			return v
		}
	}
}

// refill steps the recurrence one block on in place or, the first time,
// takes the block from src, which must continue the recurrence for 64
// more values: a Source that is not math/rand's panics here.
func (d *Draws) refill() {
	b := &d.blk
	if d.loaded {
		for k := 0; k < alfgTap; k++ {
			b[k] += b[k+alfgLen-alfgTap]
		}
		for k := alfgTap; k < alfgLen; k++ {
			b[k] += b[k-alfgTap]
		}
	} else {
		for k := range b {
			b[k] = d.src.Uint64()
		}
		for k := 0; k < 64; k++ {
			if d.src.Uint64() != b[k]+b[k+alfgLen-alfgTap] {
				panic("aqm: Draws source is not math/rand's lagged-Fibonacci generator")
			}
		}
		d.src, d.loaded = nil, true
	}
	d.i = 0
}

// threshold returns thresholdOf(p) through the two-entry cache.
func (d *Draws) threshold(p float64) uint64 {
	switch p {
	case d.tp[0]:
		return d.tt[0]
	case d.tp[1]:
		return d.tt[1]
	}
	d.tp, d.tt = [2]float64{p, d.tp[0]}, [2]uint64{thresholdOf(p), d.tt[0]}
	return d.tt[0]
}

// thresholdOf returns T(p), the smallest 63-bit v with float64(v)/2⁶³ ≥ p:
// for every v below redraw, float64(v)/2⁶³ < p exactly when v < T(p).
func thresholdOf(p float64) uint64 {
	switch {
	case !(p > 0): // p ≤ 0 or NaN: no draw is below p
		return 0
	case p >= 1:
		return redraw
	}
	// float64(v) is within 512 of v below 2⁶³, so T lies within 2048 of x.
	x := p * (1 << 63)
	lo, hi := max(uint64(x), 2048)-2048, min(uint64(x)+2048, redraw)
	for lo < hi {
		if m := lo + (hi-lo)/2; float64(m) >= x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
