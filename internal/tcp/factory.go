package tcp

import "fmt"

// ccKind is the type a congestion-control name builds.
type ccKind int

const (
	kindReno ccKind = iota
	kindScalable
	kindCubic
	kindDCTCP
	kindPrague
	numKinds
)

// controls is every name NewCC accepts: the type it builds and its default
// ECN mode.
var controls = map[string]struct {
	kind ccKind
	mode ECNMode
}{
	"reno":      {kindReno, ECNOff},
	"cubic":     {kindCubic, ECNOff},
	"ecn-reno":  {kindReno, ECNClassic},
	"ecn-cubic": {kindCubic, ECNClassic},
	"dctcp":     {kindDCTCP, ECNScalable},
	"scalable":  {kindScalable, ECNScalable},
	"prague":    {kindPrague, ECNScalable},
}

// NewCC builds a congestion control and its matching ECN mode by name.
// Recognized names:
//
//	reno       TCP Reno, loss-based (Not-ECT)
//	cubic      TCP Cubic, loss-based (Not-ECT)
//	ecn-reno   TCP Reno with classic ECN (ECT(0))
//	ecn-cubic  TCP Cubic with classic ECN (ECT(0)) — the paper's control
//	dctcp      DCTCP with accurate ECN feedback (ECT(1))
//	scalable   the idealized Scalable control of Appendix B (ECT(1))
//	prague     TCP Prague with accurate ECN feedback (ECT(1))
func NewCC(name string) (CongestionControl, ECNMode, error) {
	c, ok := controls[name]
	if !ok {
		return nil, ECNOff, fmt.Errorf("tcp: unknown congestion control %q", name)
	}
	var none ccSlab
	return none.take(c.kind), c.mode, nil
}

// NewCCFeedback builds a congestion control with an explicit ECN-feedback
// arm, for conformance matrices that cross algorithms with negotiation
// outcomes the algorithm would not pick for itself:
//
//	""          the algorithm's default wiring (same as NewCC)
//	"accurate"  per-ACK CE feedback on ECT(1) — the L4S identifier. For a
//	            Scalable control this is its native mode; for a Classic
//	            control (cubic, reno) it deliberately builds a
//	            NON-CONFORMANT sender: ECT(1) packets enter an L4S AQM's
//	            low-latency queue but the control ignores per-ACK CE, so
//	            it only backs off on loss — the failure mode RFC 9331
//	            forbids, kept measurable here.
//	"classic"   RFC 3168 ECE/CWR on ECT(0). A Scalable control falls back
//	            to the once-per-RTT classic reaction (the endpoint routes
//	            ECE through OnCongestionEvent and suppresses per-ACK CE),
//	            which is Prague's required behaviour when accurate ECN is
//	            not negotiated.
func NewCCFeedback(name, feedback string) (CongestionControl, ECNMode, error) {
	cc, mode, err := NewCC(name)
	if err != nil {
		return nil, ECNOff, err
	}
	if mode, err = feedbackMode(mode, feedback); err != nil {
		return nil, ECNOff, err
	}
	return cc, mode, nil
}

// feedbackMode applies an ECN-feedback arm (NewCCFeedback) to a control's
// default mode.
func feedbackMode(mode ECNMode, feedback string) (ECNMode, error) {
	switch feedback {
	case "":
		return mode, nil
	case "accurate":
		return ECNScalable, nil
	case "classic":
		return ECNClassic, nil
	}
	return ECNOff, fmt.Errorf("tcp: unknown ECN feedback arm %q", feedback)
}

// ccSlab holds a group's congestion controls that carry state, one typed
// slab per type, so n flows cost one allocation per type instead of one per
// flow. Reno and Scalable are stateless values and need none. A spent (or
// zero) slab allocates each further control on its own.
type ccSlab struct {
	cubic  []Cubic
	dctcp  []DCTCP
	prague []Prague
}

// newCCSlab sizes the slabs for count[k] controls of each kind.
func newCCSlab(count [numKinds]int) ccSlab {
	return ccSlab{
		cubic:  make([]Cubic, count[kindCubic]),
		dctcp:  make([]DCTCP, count[kindDCTCP]),
		prague: make([]Prague, count[kindPrague]),
	}
}

// take returns a fresh control of kind k.
func (s *ccSlab) take(k ccKind) CongestionControl {
	switch k {
	case kindCubic:
		return pop(&s.cubic)
	case kindDCTCP:
		return pop(&s.dctcp)
	case kindPrague:
		return pop(&s.prague)
	case kindScalable:
		return Scalable{}
	}
	return Reno{}
}

// pop hands out the slab's next element, or a new one once it is spent.
func pop[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		return new(T)
	}
	c := &(*slab)[0]
	*slab = (*slab)[1:]
	return c
}
