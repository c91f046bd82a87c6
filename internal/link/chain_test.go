// Multi-hop tests live in an external test package: they drive a chain of
// links with real TCP endpoints, and package tcp itself imports link.
package link_test

import (
	"math/rand"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/tcp"
)

func mkData(flow int, seq int64) *packet.Packet {
	return packet.NewData(flow, seq, packet.MSS, packet.NotECT)
}

// hop is one link of a test chain; propDelay is the one-way propagation added
// after it.
type hop struct {
	cfg       link.Config
	propDelay time.Duration
}

// chain wires links in series: each hop's delivery callback is the next hop's
// Enqueue, and only the last hop's output reaches deliver. This is the
// composition the "delivery does not release" ownership rule exists for — a
// delivered packet is still live, so the next hop may queue it.
func chain(s *sim.Simulator, hops []hop, deliver func(*packet.Packet)) []*link.Link {
	links := make([]*link.Link, len(hops))
	next := deliver
	for i := len(hops) - 1; i >= 0; i-- {
		out := next
		if delay := hops[i].propDelay; delay > 0 {
			forward := next
			out = func(p *packet.Packet) { s.After(delay, func() { forward(p) }) }
		}
		links[i] = link.New(s, hops[i].cfg, out)
		next = links[i].Enqueue
	}
	return links
}

func TestChainSerialDelivery(t *testing.T) {
	s := sim.New(1)
	var at []time.Duration
	c := chain(s, []hop{
		{cfg: link.Config{RateBps: 12e6}},                                   // 1 ms/pkt
		{cfg: link.Config{RateBps: 12e6}, propDelay: 10 * time.Millisecond}, // +1 ms +10 ms
	}, func(p *packet.Packet) { at = append(at, s.Now()) })
	c[0].Enqueue(mkData(1, 0))
	s.Run()
	if len(at) != 1 {
		t.Fatalf("delivered %d", len(at))
	}
	// 1 ms (hop 1) + 1 ms (hop 2) + 10 ms propagation.
	if want := 12 * time.Millisecond; at[0] != want {
		t.Errorf("delivered at %v, want %v", at[0], want)
	}
	if c[0].Dequeues() != 1 || c[1].Dequeues() != 1 {
		t.Error("hop accounting")
	}
}

func TestChainSlowestHopBottlenecks(t *testing.T) {
	s := sim.New(1)
	n := 0
	c := chain(s, []hop{
		{cfg: link.Config{RateBps: 100e6}},
		{cfg: link.Config{RateBps: 10e6}}, // the bottleneck
		{cfg: link.Config{RateBps: 100e6}},
	}, func(*packet.Packet) { n++ })
	for i := int64(0); i < 100; i++ {
		c[0].Enqueue(mkData(1, i))
	}
	s.Run()
	if n != 100 {
		t.Fatalf("delivered %d", n)
	}
	// The middle hop must have accumulated the standing queue.
	if c[1].Sojourn.Max() < c[0].Sojourn.Max() {
		t.Error("bottleneck hop did not dominate queuing")
	}
}

// TestChainTwoPI2Bottlenecks runs a flow through two PI2-managed hops of
// equal rate: both controllers hold their own 20 ms target and the flow
// survives the composed signal (the multi-bottleneck sanity case).
func TestChainTwoPI2Bottlenecks(t *testing.T) {
	s := sim.New(3)
	d := link.NewDispatcher()
	mkAQM := func() aqm.AQM {
		return aqm.NewPI(aqm.PIConfig{Alpha: 0.3125, Beta: 3.125, Target: 20 * time.Millisecond}, rand.New(rand.NewSource(s.RNG().Int63())))
	}
	c := chain(s, []hop{
		{cfg: link.Config{RateBps: 10e6, AQM: mkAQM()}},
		{cfg: link.Config{RateBps: 10e6, AQM: mkAQM()}},
	}, d.Deliver)
	for id := 1; id <= 5; id++ {
		ep := tcp.NewWithEnqueuer(s, c[0].Enqueue, tcp.Config{
			ID: id, CC: tcp.Reno{}, BaseRTT: 50 * time.Millisecond,
		})
		d.Register(id, ep.DeliverData)
		ep.Start()
	}
	s.RunUntil(60 * time.Second)

	// With equal rates the first hop is the bottleneck (it smooths the
	// arrivals for the second), but both AQMs must keep their queue under
	// control and no hop's delay may run away.
	for i := 0; i < 2; i++ {
		mean := c[i].Sojourn.Mean()
		if mean > 0.06 {
			t.Errorf("hop %d mean sojourn %.1f ms, want controlled", i, mean*1e3)
		}
	}
	if u := c[0].Utilization(); u < 0.85 {
		t.Errorf("hop 0 utilization %.3f", u)
	}
}
