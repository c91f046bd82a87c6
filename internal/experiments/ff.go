package experiments

import (
	"pi2/internal/ff"
	"pi2/internal/link"
	"pi2/internal/tcp"
)

// Fast-forward integration: the scenario runner's main loop alternates
// between packet mode and analytic epochs when Scenario.FastForward is on
// and the scenario is structurally eligible. Eligibility is decided once,
// up front: the engine only models a fixed population of always-on bulk
// flows through one FastForwarder AQM, so any scheduled discontinuity —
// staged arrivals, UDP or web workloads, capacity changes, impairments —
// or SACK recovery keeps the classic per-packet loop. The warm-up reset is
// the one discontinuity eligible scenarios do have; it is handled as an
// epoch barrier rather than an exclusion.

// ffForceZero is a test hook: the engine detects epochs but commits zero
// periods, so a -ff run must stay byte-identical to a -ff-off run (the
// zero-length-epoch property test).
var ffForceZero bool

// ffEligible reports whether the scenario's structure admits fast-forward.
func ffEligible(sc Scenario) bool {
	if !sc.FastForward || sc.SACK || sc.Staged != nil ||
		len(sc.UDP) > 0 || len(sc.Web) > 0 || len(sc.RateChanges) > 0 {
		return false
	}
	if sc.Impair != nil && sc.Impair.Active() {
		return false
	}
	if len(sc.Bulk) == 0 {
		return false
	}
	for _, b := range sc.Bulk {
		if b.StartAt != 0 || b.StopAt != 0 || b.SACK {
			return false
		}
	}
	return true
}

// newFFEngine builds the engine for an eligible scenario, or nil when the
// scenario or the AQM does not support fast-forward.
func newFFEngine(sc Scenario, clock ff.Clock, l *link.Link, flows []*tcp.Endpoint) *ff.Engine {
	if !ffEligible(sc) {
		return nil
	}
	eng, ok := ff.New(clock, l, flows)
	if !ok {
		return nil
	}
	eng.ForceZero = ffForceZero
	return eng
}

// runFastForward is the hybrid main loop: attempt an analytic epoch, then
// run packet mode for a few AQM update periods (re-sampling the entry
// predicate at packet fidelity), until the run ends. Epochs never cross the
// warm-up reset or the end of the run — those are the barriers — and the
// loop invokes warmReset itself the moment the clock reaches the boundary
// (the runner does not schedule it as an event in fast-forward mode, since
// ShiftPending would translate it along with the frozen packet processes).
func runFastForward(eng *ff.Engine, loop driver, sc Scenario, warmReset func()) {
	chunk := 4 * eng.Tupdate()
	warmed := false
	for {
		t := loop.Now()
		if !warmed && t >= sc.WarmUp {
			warmReset()
			warmed = true
		}
		if t >= sc.Duration {
			return
		}
		barrier := sc.Duration
		if !warmed && sc.WarmUp < barrier {
			barrier = sc.WarmUp
		}
		eng.TryAdvance(barrier)
		if !warmed && loop.Now() >= sc.WarmUp {
			warmReset()
			warmed = true
		}
		next := loop.Now() + chunk
		if !warmed && next > sc.WarmUp {
			next = sc.WarmUp
		}
		if next > sc.Duration {
			next = sc.Duration
		}
		loop.RunUntil(next)
	}
}

// ffCollect copies the engine's telemetry into the result.
func ffCollect(res *Result, eng *ff.Engine) {
	if eng == nil {
		return
	}
	res.FFEpochs = eng.Epochs
	res.FFZeroEpochs = eng.ZeroEpochs
	res.FFVirtualPkts = eng.VirtualPkts
	res.FFTime = eng.FFTime
}
