package core

import (
	"time"

	"pi2/internal/aqm"
	"pi2/internal/packet"
)

// Fast-forward support for PI2 and DualPI2. PI2 implements the full
// aqm.FastForwarder contract (FFDecideN makes for n packets the decision
// Enqueue makes for one, and Update delegates to FFUpdate, so packet mode
// and fast-forward mode share one RNG discipline). DualPI2 only exposes
// control-law stepping: dual-queue epochs keep two coupled backlogs whose
// interaction (time-shifted priority, ramp marking at dequeue) has no
// closed-form fluid model here, so the ff engine leaves dualpi2 scenarios in
// packet mode and this hook exists for unit-level validation.

var _ aqm.FastForwarder = (*PI2)(nil)

// FFDecideN implements aqm.FastForwarder: the Figure 9 classifier's
// decision for n packets of one synthetic arrival shape.
func (q2 *PI2) FFDecideN(ecn packet.ECN, _, n int) (accepted, marked, dropped int) {
	marked, dropped = q2.decideN(ecn, n)
	return n - dropped, marked, dropped
}

// FFUpdate implements aqm.FastForwarder: one plain PI step on p′ with a
// synthetic queue-delay observation.
func (q2 *PI2) FFUpdate(qdelay time.Duration) { q2.core.Update(qdelay) }

// FFShift implements aqm.FastForwarder.
func (q2 *PI2) FFShift(delta time.Duration) { q2.rate.FFShift(delta) }

// FFTarget implements aqm.FastForwarder.
func (q2 *PI2) FFTarget() time.Duration { return q2.cfg.Target }

// FFUpdate steps DualPI2's shared control law with a synthetic queue-delay
// observation, exactly as the periodic update would for the deeper of the
// two head sojourns. DualLink deliberately does NOT implement the full
// FastForwarder interface — see the package comment above.
func (d *DualLink) FFUpdate(qdelay time.Duration) { d.core.Update(qdelay) }
