package link

import (
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
)

// Queue is the discipline a Link drains: where an admitted packet waits and
// which one leaves next. The Link owns everything around it — the buffer
// bound, the serializer, the counters, the auditor and every drop — so a
// discipline only decides. FIFO + AQM (New), DualPI2's coupled L/C queues
// (core.NewDualLink) and FQ-CoDel's flow queues (fq.New) are the three.
type Queue interface {
	// Admit stores p unless the verdict is Drop; a Mark verdict is applied
	// by the link. Anything the discipline derives from p's codepoint must
	// be decided here: a CE mark rewrites it after Admit returns.
	Admit(l *Link, p *packet.Packet, now time.Duration) aqm.Verdict
	// Next removes and returns the packet to serialize; the link only calls
	// it with Len() > 0. A Drop verdict is a head drop: the link discards
	// the packet and asks again while packets remain.
	Next(l *Link, now time.Duration) (*packet.Packet, aqm.Verdict)
	// Len and Bytes are the queued packets and bytes, excluding the one
	// being serialized; the auditor's conservation identities read them.
	Len() int
	Bytes() int
	// HeadSojourn is how long the oldest queued packet has waited.
	HeadSojourn(now time.Duration) time.Duration
	// Shift translates the queued packets' enqueue timestamps, and the
	// clocks of an AQM that supports fast-forward, when the clock jumps
	// over a fast-forward epoch by delta.
	Shift(delta time.Duration)
}

// Ring is a FIFO of packets: a circular buffer that doubles when full, so a
// queue in steady state pushes and pops without allocating. It implements
// Queue's Len, Bytes, HeadSojourn and Shift.
type Ring struct {
	buf   []*packet.Packet // length 0 or a power of two
	head  int
	n     int
	bytes int
}

// Len returns the queued packet count.
func (r *Ring) Len() int { return r.n }

// Bytes returns the queued byte count.
func (r *Ring) Bytes() int { return r.bytes }

// Push appends p at the tail.
func (r *Ring) Push(p *packet.Packet) {
	if r.n == len(r.buf) {
		buf := make([]*packet.Packet, max(16, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
	r.bytes += int(p.WireLen)
}

// Pop removes and returns the head packet; the ring must not be empty.
func (r *Ring) Pop() *packet.Packet {
	p := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	r.bytes -= int(p.WireLen)
	return p
}

// HeadSojourn returns how long the head packet has been queued (0 when
// empty).
func (r *Ring) HeadSojourn(now time.Duration) time.Duration {
	if r.n == 0 {
		return 0
	}
	return now - r.buf[r.head].EnqueuedAt
}

// Shift translates every queued packet's enqueue timestamp by delta.
func (r *Ring) Shift(delta time.Duration) {
	for i := 0; i < r.n; i++ {
		r.buf[(r.head+i)&(len(r.buf)-1)].EnqueuedAt += delta
	}
}

// fifo is New's discipline: one Ring managed by an AQM that decides at
// enqueue and, for CoDel-style AQMs, again at dequeue.
type fifo struct {
	Ring
	aqm aqm.AQM
	deq aqm.DequeueDropper // aqm's dequeue-time half (CoDel); nil for most
}

func (f *fifo) Admit(l *Link, p *packet.Packet, now time.Duration) aqm.Verdict {
	v := f.aqm.Enqueue(p, l, now)
	if v != aqm.Drop {
		f.Push(p)
	}
	return v
}

func (f *fifo) Next(l *Link, now time.Duration) (*packet.Packet, aqm.Verdict) {
	p := f.Pop()
	v := aqm.Accept
	if f.deq != nil {
		if v = f.deq.DequeueVerdict(p, l, now); v == aqm.Drop {
			return p, v
		}
	}
	f.aqm.Dequeue(p, l, now)
	l.Sojourn.Add((now - p.EnqueuedAt).Seconds())
	return p, v
}

// Shift also moves the AQM's internal clocks (a departure-rate measurement
// cycle in progress).
func (f *fifo) Shift(delta time.Duration) {
	f.Ring.Shift(delta)
	if ffa, ok := f.aqm.(aqm.FastForwarder); ok {
		ffa.FFShift(delta)
	}
}
