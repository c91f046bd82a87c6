// Package link models the bottleneck: a buffer whose queue discipline (FIFO
// + AQM by default) decides admission and service order, drained by one
// serializing transmitter at a configurable bit rate.
//
// The topology in this repository mirrors the paper's dumbbell: senders
// enqueue into one bottleneck; dequeued packets are handed to a delivery
// callback (the transport endpoint adds the flow's base RTT). The reverse
// (ACK) path is uncongested, as in the testbed.
package link

import (
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// DropReason distinguishes AQM drops from buffer overflow in statistics.
type DropReason int

const (
	// DropAQM is a drop decided by the AQM control law.
	DropAQM DropReason = iota
	// DropOverflow is a tail-drop because the buffer was full.
	DropOverflow
	// DropFault is a loss injected by the impairment layer (internal/faults)
	// after the packet left the bottleneck — channel loss, not queue policy.
	// The link itself never drops with this reason; it exists so OnDrop
	// observers and loss statistics can tell injected faults apart.
	DropFault

	numDropReasons = iota
)

// Config describes a bottleneck link.
type Config struct {
	// RateBps is the serialization rate in bits/s.
	RateBps float64
	// BufferPackets bounds the queue length (tail-drop beyond it).
	// The paper's Table 1 uses 40000 packets.
	BufferPackets int
	// AQM manages New's FIFO queue; nil means pure tail-drop.
	AQM aqm.AQM
	// Sojourn, if set, collects the per-packet queuing delay; nil uses a
	// constant-memory stats.NewDelayHistogram.
	Sojourn stats.Quantiler
}

// Link is the bottleneck: a queue discipline plus the one transmitter.
type Link struct {
	sim  *sim.Simulator
	cfg  Config
	q    Queue
	rate float64 // current bits/s

	// n and bytes mirror q's occupancy for the buffer bound, QueueDelayNow
	// and the transmitter's re-arm. The AQM and the auditor read q itself:
	// inside Next, q already excludes the packet being popped.
	n, bytes int
	busy     bool

	deliver func(*packet.Packet)

	// txPkt is the packet currently being serialized and txDoneFn the
	// pre-bound completion callback; the transmitter serializes one packet
	// at a time, so a single slot (instead of a per-packet closure) keeps
	// the serialize→deliver path allocation-free. Completions never move
	// backwards in time, so they are scheduled on a private lane: a busy
	// link's heap entry is re-keyed in place from one packet to the next.
	txPkt    *packet.Packet
	txDoneFn sim.Event
	txLane   *sim.Lane

	// pool recycles dropped packets (delivered ones are released by their
	// terminal consumer, which may sit behind further hops: in a multi-hop
	// topology deliver is the next link's Enqueue).
	pool *packet.Pool

	// Statistics. Sojourn is filled by the discipline (New's FIFO and
	// FQ-CoDel use it; DualPI2 splits sojourn into its own L and C
	// collectors).
	Sojourn    stats.Quantiler // per-packet queuing delay, seconds
	Delivered  stats.RateMeter
	drops      [numDropReasons]int
	marks      int
	enqueues   int
	dequeues   int
	busySince  time.Duration
	busyTotal  time.Duration
	statsSince time.Duration

	// OnDrop, if set, is invoked for every dropped packet (AQM or
	// overflow) so transports can count losses without owning the queue.
	OnDrop func(*packet.Packet, DropReason)

	// aud is the always-on invariant auditor (see audit.go). Unlike the
	// statistics above it is never reset: its conservation identities
	// cover the link's whole lifetime.
	aud Auditor
}

// New creates a FIFO link managed by cfg.AQM and wires the AQM's periodic
// timer. deliver receives every packet that completes serialization.
func New(s *sim.Simulator, cfg Config, deliver func(*packet.Packet)) *Link {
	a := cfg.AQM
	if a == nil {
		a = aqm.TailDrop{}
	}
	f := &fifo{aqm: a}
	f.deq, _ = a.(aqm.DequeueDropper)
	l := NewWithQueue(s, cfg, f, deliver)
	if iv := a.UpdateInterval(); iv > 0 {
		s.Every(iv, func() { a.Update(l, s.Now()) })
	}
	return l
}

// NewWithQueue creates a link draining the discipline q; cfg.AQM is unused
// (q is the policy). The discipline wires any periodic timer of its own.
func NewWithQueue(s *sim.Simulator, cfg Config, q Queue, deliver func(*packet.Packet)) *Link {
	if cfg.BufferPackets <= 0 {
		cfg.BufferPackets = 40000 // Table 1 default
	}
	soj := cfg.Sojourn
	if soj == nil {
		soj = stats.NewDelayHistogram()
	}
	l := &Link{
		sim:     s,
		cfg:     cfg,
		q:       q,
		rate:    cfg.RateBps,
		deliver: deliver,
		pool:    s.PacketPool(),
		Sojourn: soj,
	}
	l.txDoneFn = l.txDone
	l.txLane = s.NewLane()
	return l
}

// --- aqm.QueueInfo ---

// BacklogBytes implements aqm.QueueInfo.
func (l *Link) BacklogBytes() int { return l.q.Bytes() }

// BacklogPackets implements aqm.QueueInfo.
func (l *Link) BacklogPackets() int { return l.q.Len() }

// HeadSojourn implements aqm.QueueInfo.
func (l *Link) HeadSojourn(now time.Duration) time.Duration { return l.q.HeadSojourn(now) }

// CapacityBps implements aqm.QueueInfo.
func (l *Link) CapacityBps() float64 { return l.rate }

// --- data path ---

// Enqueue submits a packet to the bottleneck. The buffer limit and the
// discipline's admission verdict are applied here; accepted packets are
// serialized in the order the discipline hands them out.
func (l *Link) Enqueue(p *packet.Packet) {
	if p.Released() {
		panic("link: enqueued a packet that was already released to the pool")
	}
	now := l.sim.Now()
	l.enqueues++
	l.aud.offered(p, now)
	if l.n >= l.cfg.BufferPackets {
		l.drop(p, DropOverflow, false)
		return
	}
	switch l.q.Admit(l, p, now) {
	case aqm.Drop:
		l.drop(p, DropAQM, false)
		return
	case aqm.Mark:
		l.mark(p, now)
	}
	p.EnqueuedAt = now
	l.n++
	l.bytes += int(p.WireLen)
	l.aud.accepted(p)
	l.aud.conserve(now, l.q.Len(), l.q.Bytes())
	if !l.busy {
		l.startTx()
	}
}

func (l *Link) mark(p *packet.Packet, now time.Duration) {
	l.aud.marked(p, now)
	p.ECN = packet.CE
	l.marks++
}

// drop records a dropped packet; fromQueue marks a head drop of an
// already-accepted packet (the auditor's conservation split needs it).
func (l *Link) drop(p *packet.Packet, r DropReason, fromQueue bool) {
	now := l.sim.Now()
	l.aud.droppedPkt(p, fromQueue)
	l.drops[r]++
	if l.OnDrop != nil {
		l.OnDrop(p, r)
	} else {
		// The link is the dropped packet's terminal owner; with no OnDrop
		// observer the packet can be recycled immediately. (Observers keep
		// ownership because tests retain dropped packets for inspection.)
		l.pool.Release(p)
	}
	l.aud.conserve(now, l.q.Len(), l.q.Bytes())
}

// startTx takes the discipline's next packet and begins serializing it. A
// head drop (CoDel) discards the packet and the next one is tried. The
// caller guarantees l.busy is false and at least one packet is queued.
func (l *Link) startTx() {
	now := l.sim.Now()
	for {
		p, v := l.q.Next(l, now)
		l.n--
		l.bytes -= int(p.WireLen)
		if v == aqm.Drop {
			// Head drop: the packet neither departs nor counts as a
			// dequeue, so enqueues = dequeues + drops + backlog stays
			// exact.
			l.drop(p, DropAQM, true)
			if l.n == 0 {
				return // dropped the whole backlog; link stays idle
			}
			continue
		}
		if v == aqm.Mark {
			l.mark(p, now)
		}
		l.dequeues++
		l.aud.dequeued(p, now)
		l.aud.conserve(now, l.q.Len(), l.q.Bytes())

		l.busy = true
		l.busySince = now
		l.txPkt = p
		txTime := time.Duration(float64(p.WireLen) * 8 / l.rate * float64(time.Second))
		l.txLane.After(txTime, l.txDoneFn)
		return
	}
}

// txDone completes the in-flight packet's serialization and hands it to the
// delivery callback. It is pre-bound once in NewWithQueue so serializing a
// packet schedules a plain method value, not a fresh closure.
func (l *Link) txDone() {
	p := l.txPkt
	l.txPkt = nil
	l.busyTotal += l.sim.Now() - l.busySince
	l.Delivered.Add(int(p.WireLen))
	l.aud.delivered(p, l.sim.Now())
	l.deliver(p)
	l.busy = false
	if l.n > 0 {
		l.startTx()
	}
}

// SetRateBps changes the link capacity (Figure 12's varying-capacity test).
// A packet already being serialized completes at the old rate.
func (l *Link) SetRateBps(r float64) { l.rate = r }

// RateBps returns the current capacity in bits/s.
func (l *Link) RateBps() float64 { return l.rate }

// QueueDelayNow estimates the instantaneous queuing delay as backlog
// divided by capacity; the harness samples this for the delay time series.
func (l *Link) QueueDelayNow() time.Duration {
	if l.rate <= 0 {
		return 0
	}
	return time.Duration(float64(l.bytes*8) / l.rate * float64(time.Second))
}

// --- statistics ---

// Drops returns the packet count dropped for the given reason.
func (l *Link) Drops(r DropReason) int { return l.drops[r] }

// TotalDrops returns all drops regardless of reason.
func (l *Link) TotalDrops() int { return l.drops[DropAQM] + l.drops[DropOverflow] }

// Marks returns how many packets were CE-marked.
func (l *Link) Marks() int { return l.marks }

// Enqueues returns how many packets were offered to the queue.
func (l *Link) Enqueues() int { return l.enqueues }

// Dequeues returns how many packets left the queue.
func (l *Link) Dequeues() int { return l.dequeues }

// Utilization returns the fraction of time the transmitter was busy since
// the last ResetStats (or since start).
func (l *Link) Utilization() float64 {
	now := l.sim.Now()
	busy := l.busyTotal
	if l.busy {
		busy += now - l.busySince
	}
	total := now - l.statsSince
	if total <= 0 {
		return 0
	}
	return float64(busy) / float64(total)
}

// ResetStats starts a fresh measurement window at the current time.
// Experiments call it after warm-up so start-up transients are excluded
// from steady-state statistics (they still appear in time series).
func (l *Link) ResetStats() {
	now := l.sim.Now()
	l.Sojourn.Reset()
	l.Delivered.Reset(now)
	l.drops = [numDropReasons]int{}
	l.marks = 0
	l.enqueues = 0
	l.dequeues = 0
	l.busyTotal = 0
	l.statsSince = now
	if l.busy {
		l.busySince = now
	}
}

// AQM returns the queue manager of a link built by New (nil for a link
// built over another discipline).
func (l *Link) AQM() aqm.AQM {
	if f, ok := l.q.(*fifo); ok {
		return f.aqm
	}
	return nil
}
