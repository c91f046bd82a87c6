package experiments

import (
	"time"

	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// This file is the sharded substrate of Run (runner.go): the same scenario
// on the conservative-PDES coordinator. Domain 0 is loop 0 (the bottleneck
// link, its AQM, the impairment layer and every co-located workload, whose
// handoffs stay direct calls); bulk flows are partitioned round-robin
// across domains 1..N-1. Propagation splits onto the wires: the
// sender→link mailbox edge carries RTT/2, the link→receiver edge carries
// the remaining RTT−RTT/2, and the endpoint's internal ACK path becomes
// zero-delay (tcp.Config.SplitPropagation), so the sender still observes
// BaseRTT + queuing + serialization. The lookahead window is the minimum
// one-way delay over all partitioned flows.

// shardDropCross is a test-only hook that swallows cross-domain messages
// at the barrier merge, modeling a lossy mailbox fabric; the wire auditor
// must then flag the conservation violation and fail the run.
var shardDropCross func(dst int, p *packet.Packet) bool

// shardable reports whether a scenario can (and should) run on the
// coordinator: an explicit shard count, at least two bulk flows to
// partition, and a positive one-way propagation delay on every bulk flow
// to serve as lookahead. Everything else falls back to the classic
// single-simulator path, byte-identical to an unsharded build.
func shardable(sc Scenario) bool {
	if sc.Shards < 2 {
		return false
	}
	n := 0
	for _, b := range sc.Bulk {
		if b.Count <= 0 {
			continue
		}
		if b.RTT/2 <= 0 {
			return false
		}
		n += b.Count
	}
	return n >= 2
}

// shardLookahead is the coordinator window: the minimum one-way (RTT/2)
// propagation delay across the partitioned bulk flows.
func shardLookahead(sc Scenario) time.Duration {
	var w time.Duration
	for _, b := range sc.Bulk {
		if b.Count <= 0 {
			continue
		}
		if half := b.RTT / 2; w == 0 || half < w {
			w = half
		}
	}
	return w
}

// shardRouting maps bulk flow IDs to their owning domain and the
// link→receiver wire parameters. Bulk IDs are 1..nBulk, so plain slices
// (not maps) keep the delivery hot path allocation- and hash-free. IDs
// beyond the table (staged, UDP, web) are link-local and fall through to
// the dispatcher.
type shardRouting struct {
	owner []int32
	dlv   []time.Duration
	hand  []func(*packet.Packet)
}

// shardedSubstrate places a shardable scenario on the coordinator.
func shardedSubstrate(sc Scenario, d *link.Dispatcher, nBulk int) substrate {
	// Every endpoint domain must own at least one flow; cap the shard
	// count rather than spin up empty domains.
	nE := sc.Shards - 1
	if nE > nBulk {
		nE = nBulk
	}
	co := sim.NewCoordinator(sc.Seed, nE+1, shardLookahead(sc))
	co.DropCrossHook = shardDropCross
	wires := &link.WireAuditor{}
	co.SetWireAudit(wires)
	sims := make([]*sim.Simulator, nE+1)
	flows := make([][]*tcp.Endpoint, nE+1)
	for k := range sims {
		sims[k] = co.Domain(k).Sim()
		if k > 0 {
			flows[k] = make([]*tcp.Endpoint, 0, (nBulk+nE-1)/nE)
		}
	}
	linkDom := co.Domain(0)
	rt := shardRouting{
		owner: make([]int32, nBulk+1),
		dlv:   make([]time.Duration, nBulk+1),
		hand:  make([]func(*packet.Packet), nBulk+1),
	}
	return substrate{
		loop:  co,
		sims:  sims,
		flows: flows,
		wires: wires,
		// Partitioned flows leave on their link→receiver wire; everything
		// else (staged, UDP, web) is a direct dispatcher call. Reorder
		// delays from the impairment layer in front of this only push
		// arrivals later, so the lookahead bound is untouched.
		egress: func(p *packet.Packet) {
			if id := p.FlowID; id < len(rt.owner) && rt.owner[id] != 0 {
				linkDom.Send(int(rt.owner[id]), rt.dlv[id], p, rt.hand[id])
				return
			}
			d.Deliver(p)
		},
		// Round-robin in creation order, so the partition is a pure
		// function of the scenario: domain k holds one tcp.Group per bulk
		// group, its ids stepping by nE.
		place: func(first int, spec traffic.BulkFlowSpec, linkEnq tcp.Enqueuer) []*tcp.Endpoint {
			out := make([]*tcp.Endpoint, spec.Count)
			fwd := spec.RTT / 2 // sender→link wire; the rest is link→receiver
			for k := 1; k <= nE; k++ {
				id0 := first + (k-first%nE+nE)%nE // the first id ≥ first that k owns
				if id0 >= first+spec.Count {
					continue
				}
				dom := co.Domain(k)
				n := (first + spec.Count - id0 + nE - 1) / nE
				g := traffic.NewBulk(sims[k], func(p *packet.Packet) { dom.Send(0, fwd, p, linkEnq) }, id0, nE, n, spec, true)
				deliver := g.DeliverData
				for i := range g.Flows {
					ep := &g.Flows[i]
					id := ep.ID()
					rt.owner[id], rt.dlv[id], rt.hand[id] = int32(k), spec.RTT-fwd, deliver
					flows[k] = append(flows[k], ep)
					out[id-first] = ep
				}
			}
			return out
		},
	}
}
