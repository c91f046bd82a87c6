// Package faults is the deterministic impairment layer: it sits between a
// bottleneck's transmitter and the receiving endpoints and subjects the
// delivered packet stream to channel faults — bursty (Gilbert–Elliott) or
// i.i.d. loss, reordering via delayed re-injection through the scheduler,
// duplication, and time-varying capacity schedules driving SetRateBps.
//
// Placement matters for the invariant story: the injector wraps the
// delivery callback *after* the link, so the link auditor's conservation
// identities (offered = accepted + dropped, delivered ≤ dequeued) keep
// holding with impairments active; channel losses are a property of the
// wire beyond the queue, reported as link.DropFault. All randomness comes
// from one RNG stream taken from the simulator at construction, so a run's
// fault pattern depends only on its seed — and constructing an injector
// only when impairments are configured leaves unimpaired runs' RNG draws
// (and golden fingerprints) untouched.
package faults

import (
	"math/rand"
	"time"

	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
)

// Config describes the impairments applied to a delivery path. The zero
// value injects nothing.
type Config struct {
	// Loss decides per-packet channel loss (nil = lossless).
	Loss LossModel
	// ReorderProb is the probability a delivered packet is held back by
	// ReorderDelay plus a uniform jitter in [0, ReorderJitter) and
	// re-injected through the scheduler — packets behind it pass it.
	ReorderProb   float64
	ReorderDelay  time.Duration
	ReorderJitter time.Duration
	// DupProb is the probability a delivered packet is duplicated; the
	// copy is a deep pool-backed clone delivered alongside the original.
	DupProb float64
	// Rate, if non-nil, drives the bottleneck capacity over time. It is
	// applied by the scenario runner (it needs the link handle), not by
	// the Injector.
	Rate RateSchedule
}

// Active reports whether any per-packet impairment is configured (a pure
// rate schedule needs no injector in the delivery path).
func (c Config) Active() bool {
	return c.Loss != nil || c.ReorderProb > 0 || c.DupProb > 0
}

// Injector applies a Config to a delivery stream. Wire it as
//
//	inj := faults.NewInjector(s, cfg, dispatcher.Deliver)
//	l := link.New(s, linkCfg, inj.Deliver)
//
// so every packet completing serialization passes through the channel.
type Injector struct {
	sim  *sim.Simulator
	pool *packet.Pool
	cfg  Config
	rng  *rand.Rand
	next func(*packet.Packet)

	// OnDrop, if set, takes ownership of packets the channel loses
	// (invoked with reason link.DropFault); otherwise lost packets are
	// released straight back to the pool.
	OnDrop func(*packet.Packet, link.DropReason)

	// Counters for reporting; all are totals since construction.
	Dropped    int
	Duplicated int
	Reordered  int
	Forwarded  int
}

// NewInjector builds an injector whose randomness comes from one fresh
// stream off the simulator's root RNG (taken here, at construction, like
// every other component).
func NewInjector(s *sim.Simulator, cfg Config, next func(*packet.Packet)) *Injector {
	return &Injector{sim: s, pool: s.PacketPool(), cfg: cfg, rng: s.RNG(), next: next}
}

// Deliver subjects one packet to the configured channel and forwards the
// survivors (and any duplicates) to the wrapped delivery callback.
func (inj *Injector) Deliver(p *packet.Packet) {
	if inj.cfg.Loss != nil && inj.cfg.Loss.Lose(inj.rng) {
		inj.Dropped++
		if inj.OnDrop != nil {
			inj.OnDrop(p, link.DropFault)
		} else {
			// The channel is the lost packet's terminal owner.
			inj.pool.Release(p)
		}
		return
	}
	if inj.cfg.DupProb > 0 && inj.rng.Float64() < inj.cfg.DupProb {
		inj.Duplicated++
		inj.forward(inj.clone(p))
	}
	inj.forward(p)
}

// forward hands a packet on, possibly holding it back first (reordering).
func (inj *Injector) forward(p *packet.Packet) {
	if inj.cfg.ReorderProb > 0 && inj.rng.Float64() < inj.cfg.ReorderProb {
		inj.Reordered++
		delay := inj.cfg.ReorderDelay
		if j := inj.cfg.ReorderJitter; j > 0 {
			delay += time.Duration(inj.rng.Int63n(int64(j)))
		}
		inj.sim.After(delay, func() {
			inj.Forwarded++
			inj.next(p)
		})
		return
	}
	inj.Forwarded++
	inj.next(p)
}

// clone deep-copies a packet out of the pool. SACK is the packet's only
// pointer-carrying field, so copying its blocks makes the clone independent.
func (inj *Injector) clone(p *packet.Packet) *packet.Packet {
	cp := inj.pool.Get()
	*cp = *p
	if p.SACK != nil {
		sb := *p.SACK
		cp.SACK = &sb
	}
	return cp
}
