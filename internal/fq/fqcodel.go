// Package fq implements a flow-queuing bottleneck in the style of FQ-CoDel
// (RFC 8290): packets hash to per-flow queues served by deficit round robin
// with new-flow priority, and each queue runs its own CoDel instance.
//
// The paper's introduction names per-flow queuing as the pre-existing way
// to protect latency-sensitive traffic, at the cost of the network
// inspecting transport headers and keeping per-flow state. This package
// exists to put numbers behind that comparison: FQ isolates flows without
// any coupling, so a Cubic and a DCTCP flow each get their fair share
// regardless of congestion-control aggressiveness — but every flow still
// stands in its own (CoDel-controlled) queue, and the flow identification
// the paper's single-queue design avoids is mandatory here.
package fq

import (
	"time"

	"pi2/internal/aqm"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// Config parametrizes the FQ-CoDel bottleneck.
type Config struct {
	// RateBps is the serialization rate in bits/s.
	RateBps float64
	// Queues is the number of hash buckets (default 1024).
	Queues int
	// Quantum is the DRR byte quantum (default 1514).
	Quantum int
	// Target and Interval parametrize each queue's CoDel
	// (defaults 5 ms / 100 ms).
	Target, Interval time.Duration
	// BufferPackets bounds the total backlog (default 10240, as in the
	// Linux default limit).
	BufferPackets int
}

// flowQueue is one hash bucket's queue. It is its own CoDel's
// aqm.QueueInfo: CoDel sees this queue's backlog, not the link's.
type flowQueue struct {
	link.Ring
	deficit int
	inList  bool // on the new or old round-robin list
	codel   *aqm.CoDel
}

func (q *flowQueue) BacklogBytes() int    { return q.Bytes() }
func (q *flowQueue) BacklogPackets() int  { return q.Len() }
func (q *flowQueue) CapacityBps() float64 { return 0 }

// rrList is a round-robin list of flow queues. Popping advances a head
// index and the live tail is copied down in place now and then, so rotating
// a queue from the front to the back reuses one backing array instead of
// sliding a slice window off the end of it.
type rrList struct {
	q    []*flowQueue
	head int
}

func (f *rrList) len() int          { return len(f.q) - f.head }
func (f *rrList) front() *flowQueue { return f.q[f.head] }
func (f *rrList) push(q *flowQueue) { f.q = append(f.q, q) }

func (f *rrList) pop() {
	f.head++
	if f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
}

// Link is the FQ-CoDel bottleneck. The embedded link.Link owns the
// transmitter, buffer bound, counters, drops and auditor, and records the
// sojourn of every served packet in its Sojourn; Link is only the
// discipline: flow queues under DRR with new-flow priority. CoDel's head
// drops are the link's Drops(link.DropAQM).
type Link struct {
	*link.Link

	cfg     Config
	queues  []*flowQueue
	newQ    rrList // round-robin list of new (priority) queues
	oldQ    rrList // round-robin list of old queues
	backlog int
	bytes   int
}

// flows is Link seen as its link.Queue; a distinct type keeps the
// discipline's methods off Link's exported method set.
type flows Link

// New creates an FQ-CoDel bottleneck.
func New(s *sim.Simulator, cfg Config, deliver func(*packet.Packet)) *Link {
	if cfg.Queues == 0 {
		cfg.Queues = 1024
	}
	if cfg.Quantum == 0 {
		cfg.Quantum = 1514
	}
	if cfg.Target == 0 {
		cfg.Target = 5 * time.Millisecond
	}
	if cfg.Interval == 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.BufferPackets == 0 {
		cfg.BufferPackets = 10240
	}
	l := &Link{
		cfg:    cfg,
		queues: make([]*flowQueue, cfg.Queues),
	}
	l.Link = link.NewWithQueue(s, link.Config{RateBps: cfg.RateBps, BufferPackets: cfg.BufferPackets},
		(*flows)(l), deliver)
	return l
}

// bucket hashes a flow id to a queue index (Fibonacci hashing; flows in
// the simulator are small integers, so this spreads them well enough).
func (l *Link) bucket(flowID int) int {
	h := uint64(flowID) * 0x9e3779b97f4a7c15
	return int(h % uint64(l.cfg.Queues))
}

// Admit classifies the packet into its flow queue.
func (f *flows) Admit(_ *link.Link, p *packet.Packet, _ time.Duration) aqm.Verdict {
	idx := (*Link)(f).bucket(p.FlowID)
	q := f.queues[idx]
	if q == nil {
		q = &flowQueue{codel: aqm.NewCoDel(aqm.CoDelConfig{
			Target: f.cfg.Target, Interval: f.cfg.Interval, ECN: true,
		})}
		f.queues[idx] = q
	}
	q.Push(p)
	f.backlog++
	f.bytes += int(p.WireLen)
	if !q.inList {
		// A queue becoming active enters the new-flow list with a
		// fresh quantum (RFC 8290 §4.1).
		q.deficit = f.cfg.Quantum
		f.newQ.push(q)
		q.inList = true
	}
	return aqm.Accept
}

// nextQueue picks the queue to serve: new flows first, then old flows,
// replenishing deficits DRR-style.
func (f *flows) nextQueue() *flowQueue {
	for {
		var list *rrList
		switch {
		case f.newQ.len() > 0:
			list = &f.newQ
		case f.oldQ.len() > 0:
			list = &f.oldQ
		default:
			return nil
		}
		q := list.front()
		if q.Len() == 0 {
			// Queue drained: a new queue leaves the lists entirely;
			// an old queue also leaves (it re-enters on next packet).
			list.pop()
			q.inList = false
			continue
		}
		if q.deficit <= 0 {
			// Exhausted quantum: rotate to the old list.
			q.deficit += f.cfg.Quantum
			list.pop()
			f.oldQ.push(q)
			continue
		}
		return q
	}
}

// Next serves the DRR-chosen queue's head through that queue's CoDel.
func (f *flows) Next(l *link.Link, now time.Duration) (*packet.Packet, aqm.Verdict) {
	q := f.nextQueue()
	p := q.Pop()
	f.backlog--
	f.bytes -= int(p.WireLen)
	v := q.codel.DequeueVerdict(p, q, now)
	if v == aqm.Drop {
		return p, v
	}
	q.deficit -= int(p.WireLen)
	l.Sojourn.Add((now - p.EnqueuedAt).Seconds())
	return p, v
}

func (f *flows) Len() int   { return f.backlog }
func (f *flows) Bytes() int { return f.bytes }

// HeadSojourn is the oldest flow-queue head's sojourn.
func (f *flows) HeadSojourn(now time.Duration) time.Duration {
	var oldest time.Duration
	for _, q := range f.queues {
		if q != nil {
			oldest = max(oldest, q.HeadSojourn(now))
		}
	}
	return oldest
}

// Shift moves the queued packets' timestamps; CoDel's own clocks are not
// shifted (no AQM here is fast-forwarded).
func (f *flows) Shift(delta time.Duration) {
	for _, q := range f.queues {
		if q != nil {
			q.Shift(delta)
		}
	}
}
