package aqm

import (
	"time"

	"pi2/internal/packet"
)

// FastForwarder is implemented by AQMs that support analytic fast-forward:
// during a quiescent epoch the ff engine feeds them batches of synthetic
// arrivals and control-law updates instead of real enqueue samples.
//
// The contract is exact equivalence with the packet path: FFDecideN(n) must
// make the same RNG draws (same count, same order, same thresholds) that n
// consecutive Enqueue calls would make for packets with the given ECN
// codepoint, and FFUpdate must step the control law exactly as Update would
// for the given queue-delay observation. The implementations in this
// repository guarantee this structurally: each AQM has one unexported
// decision for n packets of one shape, Enqueue makes it with n = 1 and
// FFDecideN with n, and Update is a thin wrapper over FFUpdate. An epoch's
// mark/drop counts are therefore drawn from the same stream packet mode
// would have used, and exiting fast-forward re-enters packet mode with a
// byte-reproducible RNG state.
type FastForwarder interface {
	// FFDecideN decides n synthetic arrivals with the given ECN codepoint
	// and backlog, consuming exactly the draws n Enqueue calls would. It
	// returns how many were admitted (accepted, marks included), how many
	// of those were CE-marked, and how many were dropped;
	// accepted + dropped == n.
	FFDecideN(ecn packet.ECN, backlogBytes, n int) (accepted, marked, dropped int)
	// FFUpdate steps the control law with a synthetic queue-delay
	// observation (no QueueInfo: during an epoch the queue is fluid).
	FFUpdate(qdelay time.Duration)
	// FFShift translates any internal absolute timestamps by delta when the
	// simulator clock jumps over an epoch (e.g. a departure-rate
	// measurement cycle in progress).
	FFShift(delta time.Duration)
	// FFTarget exposes the controller's queue-delay reference, which the ff
	// engine uses for its entry/stay band around the operating point.
	FFTarget() time.Duration
}

// FFShift translates an in-progress measurement cycle's start time; called
// when the simulation clock jumps over a fast-forwarded epoch so the cycle's
// elapsed time stays what it was at entry.
func (d *DepartRateEstimator) FFShift(delta time.Duration) {
	if d.inCycle {
		d.start += delta
	}
}

// --- PI ---

var _ FastForwarder = (*PI)(nil)

// FFDecideN implements FastForwarder: PI's decision for n packets.
func (pi *PI) FFDecideN(ecn packet.ECN, _, n int) (accepted, marked, dropped int) {
	marked, dropped = pi.decideN(ecn, n)
	return n - dropped, marked, dropped
}

// FFUpdate implements FastForwarder; Update delegates here after estimating
// the delay from live queue state.
func (pi *PI) FFUpdate(qdelay time.Duration) { pi.core.Update(qdelay) }

// FFShift implements FastForwarder.
func (pi *PI) FFShift(delta time.Duration) { pi.rate.FFShift(delta) }

// FFTarget implements FastForwarder.
func (pi *PI) FFTarget() time.Duration { return pi.cfg.Target }

// --- PIE ---

var _ FastForwarder = (*PIE)(nil)

// FFDecideN implements FastForwarder: PIE's drop_early decision for n
// packets, every heuristic gate included, fed one synthetic arrival shape.
func (pe *PIE) FFDecideN(ecn packet.ECN, backlogBytes, n int) (accepted, marked, dropped int) {
	marked, dropped = pe.decideN(ecn, backlogBytes, n)
	return n - dropped, marked, dropped
}

// FFUpdate implements FastForwarder: one control-law step with PIE's scaling
// and caps, fed a queue-delay observation directly. Update delegates here
// after running the configured delay estimator.
func (pe *PIE) FFUpdate(qdelay time.Duration) {
	prevDelay := pe.core.PrevDelay()
	prob := pe.core.P()

	delta := pe.core.Delta(qdelay)
	if pe.cfg.AutoTune {
		delta *= AutoTuneFactor(prob)
	}
	if pe.cfg.DeltaCap && prob >= 0.1 && delta > 0.02 {
		delta = 0.02
	}
	if pe.cfg.BigDropCap && qdelay > 250*time.Millisecond {
		delta = 0.02
	}
	prob = pe.core.Apply(delta, qdelay)

	if pe.cfg.Decay && qdelay == 0 && prevDelay == 0 {
		pe.core.SetP(prob * 0.98)
	}

	// Burst-allowance bookkeeping.
	if pe.burst > 0 {
		pe.burst -= Tupdate
		if pe.burst < 0 {
			pe.burst = 0
		}
	} else if pe.cfg.BurstAllowance > 0 &&
		pe.core.P() == 0 && qdelay < pe.cfg.Target/2 && prevDelay < pe.cfg.Target/2 {
		pe.burst = pe.cfg.BurstAllowance
	}
	pe.qdelay = qdelay
}

// FFShift implements FastForwarder.
func (pe *PIE) FFShift(delta time.Duration) { pe.rate.FFShift(delta) }

// FFTarget implements FastForwarder.
func (pe *PIE) FFTarget() time.Duration { return pe.cfg.Target }
