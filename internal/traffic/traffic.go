// Package traffic provides the load generators the paper's experiments use:
// long-running bulk TCP flows (with staged start/stop schedules for the
// varying-intensity tests), constant-bit-rate UDP sources, and a web-like
// short-flow workload for flow-completion-time measurements.
package traffic

import (
	"math"
	"time"

	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
)

// BulkFlowSpec describes a group of identical long-running TCP flows.
type BulkFlowSpec struct {
	// CC is a congestion-control name accepted by tcp.NewCC.
	CC string
	// Feedback overrides the CC's default ECN wiring ("accurate" or
	// "classic", see tcp.NewCCFeedback); "" keeps the default.
	Feedback string
	// Count is the number of flows in the group.
	Count int
	// RTT is each flow's base round-trip time.
	RTT time.Duration
	// StartAt/StopAt bound the group's activity (StopAt 0 = run forever).
	StartAt, StopAt time.Duration
	// Label tags the group in results (defaults to CC).
	Label string
	// SACK enables selective-acknowledgment recovery on every flow.
	SACK bool
	// AckEvery sets the delayed/stretch-ACK factor (0/1 = every segment).
	AckEvery int
}

// UDPSpec describes one constant-bit-rate unresponsive source of
// full-size (packet.FullLen) packets.
type UDPSpec struct {
	// RateBps is the send rate in bits/s.
	RateBps float64
	// StartAt/StopAt bound activity (StopAt 0 = run forever).
	StartAt, StopAt time.Duration
}

// UDPSource emits CBR packets into the bottleneck and counts both what it
// sent and what arrived, so overload experiments can report loss.
type UDPSource struct {
	Spec     UDPSpec
	Sent     stats.RateMeter
	Received stats.RateMeter
	flowID   int
	simr     *sim.Simulator
	link     *link.Link
	pool     *packet.Pool
	timer    sim.Timer
}

// StartUDP wires a UDP source into the simulation: packets enter the link
// and delivered ones are counted via the dispatcher.
func StartUDP(s *sim.Simulator, l *link.Link, d *link.Dispatcher, flowID int, spec UDPSpec) *UDPSource {
	u := &UDPSource{Spec: spec, flowID: flowID, simr: s, link: l, pool: s.PacketPool()}
	d.Register(flowID, func(p *packet.Packet) {
		u.Received.Add(int(p.WireLen))
		u.pool.Release(p) // UDP sink: terminal owner of delivered packets
	})
	interval := time.Duration(float64(packet.FullLen*8) / spec.RateBps * float64(time.Second))
	s.At(spec.StartAt, func() {
		u.ResetStats(s.Now())
		u.timer = s.Every(interval, u.emit)
		u.emit()
	})
	if spec.StopAt > spec.StartAt {
		s.At(spec.StopAt, func() { u.timer.Stop() })
	}
	return u
}

func (u *UDPSource) emit() {
	p := u.pool.Get()
	p.FlowID = u.flowID
	p.WireLen = packet.FullLen
	p.ECN = packet.NotECT
	u.Sent.Add(packet.FullLen)
	u.link.Enqueue(p)
}

// ResetStats restarts both meters — the runner calls this at the warm-up
// boundary so delivered/lost counts cover the measurement window only.
func (u *UDPSource) ResetStats(now time.Duration) {
	u.Sent.Reset(now)
	u.Received.Reset(now)
}

// NewBulk builds n flows of a bulk group on simulator s as one tcp.Group,
// sending through enq: flow i has id first+i*step. It is the one place a
// BulkFlowSpec becomes a tcp.Config; the caller registers the delivery path
// (Group.DeliverData, for every id) and starts the flows. split moves
// propagation onto the caller's wires (tcp.Config.SplitPropagation).
func NewBulk(s *sim.Simulator, enq tcp.Enqueuer, first, step, n int, spec BulkFlowSpec, split bool) *tcp.Group {
	g, err := tcp.NewGroup(s, enq, tcp.Config{
		ID:               first,
		BaseRTT:          spec.RTT,
		SACK:             spec.SACK,
		AckEvery:         spec.AckEvery,
		SplitPropagation: split,
	}, n, step, spec.Feedback, spec.CC)
	if err != nil {
		panic(err)
	}
	return g
}

// StagedCounts builds the paper's varying-intensity schedule: counts[i]
// flows of the given CC are active during stage i, each stage lasting
// stageLen. Flows persist across stages when the count stays ≥ their rank,
// exactly like starting/stopping iperf instances. Used by Figures 6 and 13
// (10:30:50:30:10 over 50 s stages).
func StagedCounts(s *sim.Simulator, l *link.Link, d *link.Dispatcher, firstID int,
	cc string, rtt time.Duration, counts []int, stageLen time.Duration) ([]*tcp.Endpoint, int) {

	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	// Flow with rank r (0-based) is active during every stage with
	// count > r. Because the paper's schedules are unimodal, each rank is
	// active over one contiguous interval [firstStage, lastStage], and
	// every rank below the largest count has one.
	g := NewBulk(s, l.Enqueue, firstID, 1, maxCount, BulkFlowSpec{CC: cc, RTT: rtt}, false)
	deliver := g.DeliverData
	eps := make([]*tcp.Endpoint, maxCount)
	for r := range eps {
		first, last := -1, -1
		for i, c := range counts {
			if c > r {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		ep := &g.Flows[r]
		d.Register(ep.ID(), deliver)
		s.At(time.Duration(first)*stageLen, ep.Start)
		stop := time.Duration(last+1) * stageLen
		if last != len(counts)-1 {
			s.At(stop, ep.Stop)
		}
		eps[r] = ep
	}
	return eps, firstID + maxCount
}

// WebSpec describes a web-like short-flow workload: flows arrive as a
// Poisson process with bounded-Pareto sizes (heavy-tailed, like web
// responses): shape webShape between webMinSegs and webMaxSegs segments.
type WebSpec struct {
	// ArrivalRate is flows per second.
	ArrivalRate float64
	// CC and RTT apply to every generated flow.
	CC  string
	RTT time.Duration
	// StopAt ends new arrivals.
	StopAt time.Duration
}

// The web workload's flow-size distribution.
const (
	webShape   = 1.2
	webMinSegs = 2
	webMaxSegs = 2000
)

// WebWorkload generates short flows and records their completion times.
type WebWorkload struct {
	Spec WebSpec
	// FCT collects flow completion times in seconds: StartWeb's fct
	// argument, which several workloads may share.
	FCT stats.Quantiler
	// Started and Finished count generated/completed flows.
	Started, Finished int

	s      *sim.Simulator
	enq    tcp.Enqueuer
	d      *link.Dispatcher
	nextID *int
}

// StartWeb launches a web-like workload whose completion times go to fct
// (nil: a new stats.NewDelayHistogram). nextID is advanced for every
// generated flow so callers can keep allocating unique IDs.
func StartWeb(s *sim.Simulator, l *link.Link, d *link.Dispatcher, nextID *int, spec WebSpec, fct stats.Quantiler) *WebWorkload {
	if fct == nil {
		fct = stats.NewDelayHistogram()
	}
	w := &WebWorkload{Spec: spec, FCT: fct, s: s, enq: l.Enqueue, d: d, nextID: nextID}
	rng := s.RNG()
	var arrive func()
	arrive = func() {
		if spec.StopAt > 0 && s.Now() >= spec.StopAt {
			return
		}
		w.launch(rng.Float64())
		gap := time.Duration(expRand(rng.Float64(), spec.ArrivalRate) * float64(time.Second))
		s.After(gap, arrive)
	}
	s.After(0, arrive)
	return w
}

func (w *WebWorkload) launch(u float64) {
	size := boundedPareto(u, webShape, webMinSegs, webMaxSegs)
	id := *w.nextID
	*w.nextID = id + 1
	started := w.s.Now()
	g, err := tcp.NewGroup(w.s, w.enq, tcp.Config{
		ID:       id,
		BaseRTT:  w.Spec.RTT,
		FlowSegs: int64(size),
		OnComplete: func(now time.Duration) {
			w.Finished++
			w.FCT.Add((now - started).Seconds())
			w.d.Unregister(id)
		},
	}, 1, 1, "", w.Spec.CC)
	if err != nil {
		panic(err)
	}
	w.d.Register(id, g.DeliverData)
	w.Started++
	g.Flows[0].Start()
}

// expRand maps a uniform u to an exponential inter-arrival with rate λ.
func expRand(u, lambda float64) float64 {
	if u <= 0 {
		u = 1e-12
	}
	return -math.Log(u) / lambda
}

// boundedPareto maps a uniform u to a bounded Pareto sample in [lo, hi].
func boundedPareto(u, shape, lo, hi float64) float64 {
	if u >= 1 {
		u = 1 - 1e-12
	}
	la := math.Pow(lo, shape)
	ha := math.Pow(hi, shape)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/shape)
}
