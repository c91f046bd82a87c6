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
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
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

type flowQueue struct {
	pkts    []*packet.Packet
	head    int
	bytes   int
	deficit int
	codel   *aqm.CoDel
}

func (q *flowQueue) len() int { return len(q.pkts) - q.head }

func (q *flowQueue) push(p *packet.Packet) {
	q.pkts = append(q.pkts, p)
	q.bytes += p.WireLen
}

func (q *flowQueue) pop() *packet.Packet {
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head++
	if q.head > 256 && q.head*2 >= len(q.pkts) {
		n := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[n:])
		q.pkts = q.pkts[:n]
		q.head = 0
	}
	q.bytes -= p.WireLen
	return p
}

// idxFIFO is a round-robin list of queue indices. Popping advances a head
// index and the live tail is copied down in place now and then, so rotating
// a queue from the front to the back reuses one backing array instead of
// sliding a slice window off the end of it.
type idxFIFO struct {
	q    []int
	head int
}

func (f *idxFIFO) len() int   { return len(f.q) - f.head }
func (f *idxFIFO) front() int { return f.q[f.head] }
func (f *idxFIFO) push(i int) { f.q = append(f.q, i) }

func (f *idxFIFO) pop() {
	f.head++
	if f.head*2 >= len(f.q) {
		n := copy(f.q, f.q[f.head:])
		f.q = f.q[:n]
		f.head = 0
	}
}

// Link is the FQ-CoDel bottleneck. It presents the same Enqueue/deliver
// shape as link.Link and core.DualLink so endpoints can attach directly.
type Link struct {
	sim     *sim.Simulator
	cfg     Config
	deliver func(*packet.Packet)

	queues  []*flowQueue
	newQ    idxFIFO // round-robin list of new (priority) queue indices
	oldQ    idxFIFO // round-robin list of old queue indices
	inList  []bool
	backlog int
	busy    bool

	// txPkt is the packet currently serializing, txDoneFn the pre-bound
	// completion callback and txLane the private lane completions are
	// scheduled on — the same zero-allocation transmit path as link.Link.
	txPkt    *packet.Packet
	txDoneFn sim.Event
	txLane   *sim.Lane

	// Statistics.
	Sojourn   stats.Sample
	drops     int
	codelDrop int
	busySince time.Duration
	busyTotal time.Duration
}

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
		sim:     s,
		cfg:     cfg,
		deliver: deliver,
		queues:  make([]*flowQueue, cfg.Queues),
		inList:  make([]bool, cfg.Queues),
	}
	l.txDoneFn = l.txDone
	l.txLane = s.NewLane()
	return l
}

// bucket hashes a flow id to a queue index (Fibonacci hashing; flows in
// the simulator are small integers, so this spreads them well enough).
func (l *Link) bucket(flowID int) int {
	h := uint64(flowID) * 0x9e3779b97f4a7c15
	return int(h % uint64(l.cfg.Queues))
}

// Enqueue classifies the packet into its flow queue.
func (l *Link) Enqueue(p *packet.Packet) {
	now := l.sim.Now()
	if l.backlog >= l.cfg.BufferPackets {
		l.drops++
		return
	}
	idx := l.bucket(p.FlowID)
	q := l.queues[idx]
	if q == nil {
		q = &flowQueue{codel: aqm.NewCoDel(aqm.CoDelConfig{
			Target: l.cfg.Target, Interval: l.cfg.Interval, ECN: true,
		})}
		l.queues[idx] = q
	}
	p.EnqueuedAt = now
	q.push(p)
	l.backlog++
	if !l.inList[idx] {
		// A queue becoming active enters the new-flow list with a
		// fresh quantum (RFC 8290 §4.1).
		q.deficit = l.cfg.Quantum
		l.newQ.push(idx)
		l.inList[idx] = true
	}
	if !l.busy {
		l.startTx()
	}
}

// nextQueue picks the queue to serve: new flows first, then old flows,
// replenishing deficits DRR-style.
func (l *Link) nextQueue() (int, *flowQueue) {
	for {
		var list *idxFIFO
		switch {
		case l.newQ.len() > 0:
			list = &l.newQ
		case l.oldQ.len() > 0:
			list = &l.oldQ
		default:
			return -1, nil
		}
		idx := list.front()
		q := l.queues[idx]
		if q.len() == 0 {
			// Queue drained: a new queue leaves the lists entirely;
			// an old queue also leaves (it re-enters on next packet).
			list.pop()
			l.inList[idx] = false
			continue
		}
		if q.deficit <= 0 {
			// Exhausted quantum: rotate to the old list.
			q.deficit += l.cfg.Quantum
			list.pop()
			l.oldQ.push(idx)
			continue
		}
		return idx, q
	}
}

func (l *Link) startTx() {
	now := l.sim.Now()
	var p *packet.Packet
	for {
		_, q := l.nextQueue()
		if q == nil {
			return
		}
		cand := q.pop()
		l.backlog--
		switch q.codel.DequeueVerdict(cand, codelView{q}, now) {
		case aqm.Drop:
			l.drops++
			l.codelDrop++
			continue
		case aqm.Mark:
			cand.ECN = packet.CE
		}
		q.deficit -= cand.WireLen
		p = cand
		break
	}
	l.Sojourn.Add((now - p.EnqueuedAt).Seconds())

	l.busy = true
	l.busySince = now
	l.txPkt = p
	txTime := time.Duration(float64(p.WireLen*8) / l.cfg.RateBps * float64(time.Second))
	l.txLane.After(txTime, l.txDoneFn)
}

// txDone completes the in-flight packet's serialization and hands it to the
// delivery callback.
func (l *Link) txDone() {
	p := l.txPkt
	l.txPkt = nil
	l.busyTotal += l.sim.Now() - l.busySince
	l.deliver(p)
	l.busy = false
	if l.backlog > 0 {
		l.startTx()
	}
}

// codelView adapts a flowQueue to aqm.QueueInfo for its CoDel instance.
type codelView struct{ q *flowQueue }

func (v codelView) BacklogBytes() int   { return v.q.bytes }
func (v codelView) BacklogPackets() int { return v.q.len() }
func (v codelView) HeadSojourn(now time.Duration) time.Duration {
	if v.q.len() == 0 {
		return 0
	}
	return now - v.q.pkts[v.q.head].EnqueuedAt
}
func (v codelView) CapacityBps() float64 { return 0 }

// Drops returns total drops (overflow + CoDel).
func (l *Link) Drops() int { return l.drops }

// CoDelDrops returns only the CoDel-decided drops.
func (l *Link) CoDelDrops() int { return l.codelDrop }

// Backlog returns the total queued packet count.
func (l *Link) Backlog() int { return l.backlog }

// Utilization returns the busy fraction since simulation start.
func (l *Link) Utilization() float64 {
	now := l.sim.Now()
	busy := l.busyTotal
	if l.busy {
		busy += now - l.busySince
	}
	if now <= 0 {
		return 0
	}
	return float64(busy) / float64(now)
}
