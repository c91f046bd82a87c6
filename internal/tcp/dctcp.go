package tcp

import "time"

// DCTCP implements Data Center TCP with accurate per-ACK ECN feedback: its
// ecnWindow updates α once per round trip and cuts cwnd once by α/2 after
// a marked one. Under an AQM applying probabilistic (not step) marking this
// yields the steady-state window W = 2/p of the paper's equation (11),
// i.e. a Scalable control with B = 1.
// Its knobs, G and InitialAlpha, are the embedded window's.
//
// Loss is handled like Reno (the paper's testbed used unmodified Linux
// DCTCP, which falls back to a 0.5 reduction on loss).
type DCTCP struct {
	ecnWindow
}

// ecnWindow is the accurate-ECN observation window DCTCP and Prague share.
// Each window spans one round trip of sequence space; when the ACK point
// passes its end, the fraction F of CE-marked segments it saw updates the
// EWMA α ← (1−g)·α + g·F, and a window with any mark cuts cwnd once by α/2.
type ecnWindow struct {
	// G is the EWMA gain (1/16 by default, as in the DCTCP paper).
	G float64
	// InitialAlpha is α at connection start (1.0, conservative, like Linux).
	InitialAlpha float64

	alpha      float64
	ackedSegs  int
	markedSegs int
	windowEnd  int64  // sequence (in segments) closing the observation window
	sndUnaRef  *int64 // set by the endpoint; current cumulative ACK point
	sndNxtRef  *int64
}

// init applies the defaults and opens the first window lazily.
func (w *ecnWindow) init() {
	if w.G == 0 {
		w.G = 1.0 / 16
	}
	if w.InitialAlpha == 0 {
		w.InitialAlpha = 1
	}
	w.alpha = w.InitialAlpha
	w.windowEnd = -1
}

// Alpha exposes the current marking-fraction estimate (for tests/reports).
func (w *ecnWindow) Alpha() float64 { return w.alpha }

// bindSeq lets the endpoint share its sequence state so the observation
// window can span exactly one round trip of sequence space.
func (w *ecnWindow) bindSeq(sndUna, sndNxt *int64) {
	w.sndUnaRef = sndUna
	w.sndNxtRef = sndNxt
}

// onAck counts one ACK's segments and closes the window once the ACK point
// passes its end, opening the next one at sndNxt.
func (w *ecnWindow) onAck(s *State, acked int, ackedCE bool) {
	w.ackedSegs += acked
	if ackedCE {
		w.markedSegs += acked
	}
	if w.windowEnd < 0 && w.sndNxtRef != nil {
		w.windowEnd = *w.sndNxtRef
	}
	if w.sndUnaRef != nil && *w.sndUnaRef >= w.windowEnd {
		w.close(s)
		w.windowEnd = *w.sndNxtRef
	}
}

// close ends the current window: the EWMA update, at most one α/2 cut, and
// fresh counters. It leaves windowEnd alone, because the fast-forward
// stepper closes windows by segment count instead of sequence number.
func (w *ecnWindow) close(s *State) {
	f := 0.0
	if w.ackedSegs > 0 {
		f = float64(w.markedSegs) / float64(w.ackedSegs)
	}
	w.alpha = (1-w.G)*w.alpha + w.G*f
	if w.markedSegs > 0 {
		s.Cwnd *= 1 - w.alpha/2
		s.clampCwnd()
		s.Ssthresh = s.Cwnd
	}
	w.ackedSegs, w.markedSegs = 0, 0
}

// reset discards the window in progress (on an RTO the sequence space is
// about to be rewound under it).
func (w *ecnWindow) reset() {
	w.ackedSegs, w.markedSegs = 0, 0
	w.windowEnd = -1
}

// Name implements CongestionControl.
func (d *DCTCP) Name() string { return "dctcp" }

// Init implements CongestionControl.
func (d *DCTCP) Init(s *State) { d.init() }

// OnAck implements CongestionControl.
func (d *DCTCP) OnAck(s *State, acked int, ackedCE bool, now time.Duration) {
	d.onAck(s, acked, ackedCE)
	// Growth is Reno-like: slow start, then 1 segment per RTT.
	renoIncrease(s, acked)
}

// OnCongestionEvent implements CongestionControl (loss → Reno halving).
func (d *DCTCP) OnCongestionEvent(s *State, now time.Duration) {
	Reno{}.OnCongestionEvent(s, now)
}

// OnRTO implements CongestionControl.
func (d *DCTCP) OnRTO(s *State, now time.Duration) {
	Reno{}.OnRTO(s, now)
	d.reset()
}

// Scalable is the idealized scalable control of Appendix B equation (22):
// it reduces the window by half a segment per CE mark, immediately, with no
// smoothing, and increases by one segment per RTT. Its steady-state window
// is W = 2/p′ exactly; the paper uses it as the analytic stand-in for DCTCP.
type Scalable struct{}

// Name implements CongestionControl.
func (Scalable) Name() string { return "scalable" }

// Init implements CongestionControl.
func (Scalable) Init(s *State) {}

// OnAck implements CongestionControl.
func (Scalable) OnAck(s *State, acked int, ackedCE bool, _ time.Duration) {
	if ackedCE {
		s.Cwnd -= 0.5 * float64(acked)
		s.clampCwnd()
		if s.Ssthresh > s.Cwnd {
			s.Ssthresh = s.Cwnd // leave slow start on first mark
		}
		return
	}
	renoIncrease(s, acked)
}

// OnCongestionEvent implements CongestionControl.
func (Scalable) OnCongestionEvent(s *State, now time.Duration) {
	Reno{}.OnCongestionEvent(s, now)
}

// OnRTO implements CongestionControl.
func (Scalable) OnRTO(s *State, now time.Duration) { Reno{}.OnRTO(s, now) }
