package tcp

import "time"

// segMeta is what the sender remembers about one transmitted segment. The
// last three bits are the SACK scoreboard (sack.go); they stay false unless
// Config.SACK.
type segMeta struct {
	sentAt time.Duration
	retx   bool // ever retransmitted: Karn's algorithm skips its RTT sample
	sacked bool // selectively acknowledged
	lost   bool // inferred lost by the FACK rule
	resent bool // inferred lost and retransmitted since
}

// segRing holds the segMeta of every segment in [lo, hi): lo follows the
// cumulative ACK point and hi is one past the highest sequence number ever
// sent. That is exactly the key set a map keyed by sequence number would hold
// — entries are created in sequence order and die only by cumulative ACK — so
// presence is a range test and a lookup is a masked index. The window
// deliberately outlives a go-back-N rewind of sndNxt: segments sent before
// the timeout keep their timestamps until they are re-sent or acknowledged.
type segRing struct {
	buf    []segMeta // power-of-two length; seq lives at buf[seq&mask]
	mask   int64
	lo, hi int64
}

// get returns the record for seq and whether the segment is outstanding.
func (r *segRing) get(seq int64) (segMeta, bool) {
	if seq < r.lo || seq >= r.hi {
		return segMeta{}, false
	}
	return r.buf[seq&r.mask], true
}

// at returns the record of an outstanding seq for in-place update.
func (r *segRing) at(seq int64) *segMeta { return &r.buf[seq&r.mask] }

// sent records a transmission of seq at now. A segment that was ever
// retransmitted stays marked (Karn's algorithm must skip it) until it is
// acknowledged, and a re-sent segment keeps its scoreboard bits: the SACK
// sender marks a retransmission only after sending it.
func (r *segRing) sent(seq int64, now time.Duration, retx bool) {
	switch {
	case seq == r.hi:
		if r.hi-r.lo == int64(len(r.buf)) {
			r.grow()
		}
		r.hi++
		r.buf[seq&r.mask] = segMeta{sentAt: now, retx: retx}
	case seq >= r.lo && seq < r.hi:
		m := r.at(seq)
		m.sentAt = now
		m.retx = m.retx || retx
	default:
		// Segments are numbered densely: anything else would alias a live
		// slot, and only a sender bug can produce it.
		panic("tcp: segment sent outside the outstanding window")
	}
}

// ackTo forgets every segment below ack, the new cumulative ACK point.
func (r *segRing) ackTo(ack int64) {
	r.lo = ack
	if r.hi < ack {
		r.hi = ack
	}
}

// shift moves every outstanding send timestamp forward by delta.
func (r *segRing) shift(delta time.Duration) {
	for s := r.lo; s < r.hi; s++ {
		r.buf[s&r.mask].sentAt += delta
	}
}

// grow doubles the ring, re-homing each outstanding segment under the new
// mask.
func (r *segRing) grow() {
	n := 2 * len(r.buf)
	if n == 0 {
		n = 16
	}
	buf := make([]segMeta, n)
	mask := int64(n - 1)
	for s := r.lo; s < r.hi; s++ {
		buf[s&mask] = r.buf[s&r.mask]
	}
	r.buf, r.mask = buf, mask
}
