package faults

import (
	"time"

	"pi2/internal/sim"
)

// RateSetter is the capacity-control surface a schedule drives; link.Link
// satisfies it, whatever its queue discipline.
type RateSetter interface {
	SetRateBps(float64)
	RateBps() float64
}

// RateSchedule varies a bottleneck's capacity over virtual time. Schedules
// draw no randomness: a capacity trajectory is part of the scenario, so the
// same schedule replays identically across paired AQM arms and never
// perturbs any component's RNG stream.
type RateSchedule interface {
	// Apply arms the schedule's timers on s against l.
	Apply(s *sim.Simulator, l RateSetter)
}

// Square is a square-wave capacity flap: the link starts at HighBps, drops
// to LowBps after half a Period, returns to HighBps at the full Period, and
// repeats until the simulation ends.
type Square struct {
	HighBps, LowBps float64
	Period          time.Duration
}

// Apply arms one recurring half-period toggle (a single reused timer slot).
func (sq Square) Apply(s *sim.Simulator, l RateSetter) {
	half := sq.Period / 2
	if half <= 0 {
		panic("faults: Square.Period must be positive")
	}
	low := false
	s.Every(half, func() {
		low = !low
		if low {
			l.SetRateBps(sq.LowBps)
		} else {
			l.SetRateBps(sq.HighBps)
		}
	})
}

// Step is one point of a piecewise-constant capacity schedule.
type Step struct {
	At      time.Duration
	RateBps float64
}

// Steps applies each capacity step at its absolute time.
type Steps []Step

// Apply arms one timer per step.
func (st Steps) Apply(s *sim.Simulator, l RateSetter) {
	for _, sp := range st {
		rate := sp.RateBps
		s.At(sp.At, func() { l.SetRateBps(rate) })
	}
}

// Ramp sweeps the capacity linearly from FromBps to ToBps over
// [Start, Start+Length], quantized into Tick-spaced steps
// (default Length/20).
type Ramp struct {
	FromBps, ToBps float64
	Start, Length  time.Duration
	Tick           time.Duration
}

// Apply arms the quantized steps of the ramp.
func (r Ramp) Apply(s *sim.Simulator, l RateSetter) {
	tick := r.Tick
	if tick <= 0 {
		tick = r.Length / 20
	}
	if tick <= 0 {
		panic("faults: Ramp needs a positive Length or Tick")
	}
	n := int(r.Length / tick)
	if n < 1 {
		n = 1
	}
	for i := 0; i <= n; i++ {
		frac := float64(i) / float64(n)
		rate := r.FromBps + (r.ToBps-r.FromBps)*frac
		s.At(r.Start+time.Duration(i)*tick, func() { l.SetRateBps(rate) })
	}
}
