package experiments

import (
	"math"
	"testing"
	"time"

	"pi2/internal/traffic"
)

// ffTwinScenario is a small fast-forward-eligible cell: a reno/cubic/dctcp
// mix through PI2 at 2 Mb/s fair share, long enough past warm-up for
// quiescent epochs to fire. WarmUp is deliberately not aligned to the 100 ms
// or 1 s sampler grids, so the warm-up reset is the only event whose
// scheduling differs between the packet and hybrid main loops.
func ffTwinScenario(ff bool) Scenario {
	factory, _ := FactoryByName("pi2", 0)
	return Scenario{
		Seed:        7,
		FastForward: ff,
		LinkRateBps: 2e6 * 9,
		NewAQM:      factory,
		Bulk: []traffic.BulkFlowSpec{
			{CC: "reno", Count: 3, RTT: 10 * time.Millisecond, Label: "reno"},
			{CC: "cubic", Count: 3, RTT: 10 * time.Millisecond, Label: "cubic"},
			{CC: "dctcp", Count: 3, RTT: 10 * time.Millisecond, Label: "dctcp"},
		},
		Duration: 4 * time.Second,
		WarmUp:   1550 * time.Millisecond,
	}
}

// TestFFForceZeroByteIdentity is the zero-length-epoch property test: with
// the engine detecting epochs but committing zero periods (ffForceZero), a
// -ff run must reproduce the -ff-off run exactly — same event count modulo
// the warm-up reset (an event in the packet loop, a direct call in the
// hybrid loop), and bit-equal statistics everywhere. Any state the predicate
// or the zero-length path mutated — RNG draws, AQM clocks, flow windows —
// would show up as a divergence downstream.
func TestFFForceZeroByteIdentity(t *testing.T) {
	base := Run(ffTwinScenario(false))

	ffForceZero = true
	defer func() { ffForceZero = false }()
	zero := Run(ffTwinScenario(true))

	if zero.FFZeroEpochs == 0 {
		t.Fatal("no zero-length epochs detected; the property is vacuous")
	}
	if zero.FFEpochs != 0 || zero.FFTime != 0 || zero.FFVirtualPkts != 0 {
		t.Fatalf("ForceZero committed work: epochs=%d time=%v pkts=%d",
			zero.FFEpochs, zero.FFTime, zero.FFVirtualPkts)
	}
	// The packet loop processes the warm-up reset as one scheduled event;
	// the hybrid loop invokes it directly. Everything else must match.
	if base.Events != zero.Events+1 {
		t.Errorf("events: packet=%d hybrid=%d (want packet = hybrid+1)",
			base.Events, zero.Events)
	}
	if base.Marks != zero.Marks || base.DropsAQM != zero.DropsAQM ||
		base.DropsOverflow != zero.DropsOverflow {
		t.Errorf("link counters diverge: marks %d/%d dropsAQM %d/%d overflow %d/%d",
			base.Marks, zero.Marks, base.DropsAQM, zero.DropsAQM,
			base.DropsOverflow, zero.DropsOverflow)
	}
	if base.Utilization != zero.Utilization {
		t.Errorf("utilization: %v vs %v", base.Utilization, zero.Utilization)
	}
	if base.Sojourn.Mean() != zero.Sojourn.Mean() ||
		base.Sojourn.Percentile(99) != zero.Sojourn.Percentile(99) {
		t.Errorf("sojourn stats diverge: mean %v/%v p99 %v/%v",
			base.Sojourn.Mean(), zero.Sojourn.Mean(),
			base.Sojourn.Percentile(99), zero.Sojourn.Percentile(99))
	}
	if len(base.Groups) != len(zero.Groups) {
		t.Fatalf("group count: %d vs %d", len(base.Groups), len(zero.Groups))
	}
	for i := range base.Groups {
		b, z := base.Groups[i], zero.Groups[i]
		if b.Marks != z.Marks || b.CongestionEvents != z.CongestionEvents ||
			b.Retransmissions != z.Retransmissions {
			t.Errorf("group %s counters diverge: marks %d/%d events %d/%d retx %d/%d",
				b.Label, b.Marks, z.Marks, b.CongestionEvents, z.CongestionEvents,
				b.Retransmissions, z.Retransmissions)
		}
		for j := range b.FlowRates {
			if b.FlowRates[j] != z.FlowRates[j] {
				t.Errorf("group %s flow %d rate: %v vs %v",
					b.Label, j, b.FlowRates[j], z.FlowRates[j])
			}
		}
	}
}

// TestFFTwinFidelity validates real fast-forward epochs against the
// packet-mode twin of the same cell: aggregate goodput within a few percent,
// Jain's index within a band, and the queue parked near the same operating
// point. The tolerances are behavioral (the fluid trajectory is a model, not
// a replay), but tight enough to catch any systematic bias — the regressions
// this PR debugged (unresponsive frozen-recovery flows, a shifted warm-up
// reset) each moved these numbers by 2-10x the allowed band.
func TestFFTwinFidelity(t *testing.T) {
	pkt := Run(ffTwinScenario(false))
	ff := Run(ffTwinScenario(true))

	if ff.FFEpochs == 0 || ff.FFTime < time.Second {
		t.Fatalf("fast-forward barely engaged: epochs=%d time=%v",
			ff.FFEpochs, ff.FFTime)
	}
	var pktTotal, ffTotal float64
	for i := range pkt.Groups {
		pktTotal += pkt.Groups[i].Total()
		ffTotal += ff.Groups[i].Total()
	}
	if rel := math.Abs(ffTotal-pktTotal) / pktTotal; rel > 0.05 {
		t.Errorf("aggregate goodput diverges %.1f%%: packet=%.3g ff=%.3g",
			rel*100, pktTotal, ffTotal)
	}
	jain := func(r *Result) float64 {
		var sum, sq float64
		var n int
		for _, g := range r.Groups {
			for _, rate := range g.FlowRates {
				sum += rate
				sq += rate * rate
				n++
			}
		}
		return sum * sum / (float64(n) * sq)
	}
	jp, jf := jain(pkt), jain(ff)
	// The fluid model suppresses short-run stochastic unfairness, so the
	// hybrid run may only be fairer, never markedly less fair.
	if jf < jp-0.02 {
		t.Errorf("fairness collapsed under fast-forward: jain packet=%.3f ff=%.3f", jp, jf)
	}
	qp, qf := pkt.Sojourn.Mean(), ff.Sojourn.Mean()
	if rel := math.Abs(qf-qp) / qp; rel > 0.25 {
		t.Errorf("mean queue delay diverges %.0f%%: packet=%.1fms ff=%.1fms",
			rel*100, qp*1e3, qf*1e3)
	}
	if ff.Utilization < 0.95 {
		t.Errorf("utilization under fast-forward = %.3f, want >= 0.95", ff.Utilization)
	}
	t.Logf("packet: jain=%.3f q=%.1fms | ff: jain=%.3f q=%.1fms epochs=%d ffTime=%v virtual=%d",
		jp, qp*1e3, jf, qf*1e3, ff.FFEpochs, ff.FFTime, ff.FFVirtualPkts)
}
