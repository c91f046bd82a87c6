package experiments

import (
	"testing"

	"pi2/internal/campaign"
)

// TestDualQBeatsSingleQueueOnLatency is the extension's headline: the L
// queue's delay must be at least an order of magnitude below the shared
// single-queue delay, with rate balance and utilization preserved.
func TestDualQBeatsSingleQueueOnLatency(t *testing.T) {
	r := must(DualQ(campaign.Options{Grid: campaign.Grid{Quick: true}}, 1, 1))
	t.Logf("single: ratio=%.2f L=%.2fms | dual: ratio=%.2f L=%.3fms C=%.2fms util=%.3f",
		r.Single.Ratio, r.Single.LDelayMs.Mean, r.Dual.Ratio, r.Dual.LDelayMs.Mean, r.Dual.CDelayMs.Mean, r.Dual.Util)
	if r.Dual.LDelayMs.Mean > r.Single.LDelayMs.Mean/10 {
		t.Errorf("dual L delay %.3f ms, want <= single/10 (%.3f ms)",
			r.Dual.LDelayMs.Mean, r.Single.LDelayMs.Mean/10)
	}
	if r.Dual.Ratio < 0.2 || r.Dual.Ratio > 5 {
		t.Errorf("dual rate ratio %.3f: coupling broken across queues", r.Dual.Ratio)
	}
	if r.Dual.Util < 0.9 {
		t.Errorf("dual utilization %.3f", r.Dual.Util)
	}
	if r.Dual.Jain < 0.7 {
		t.Errorf("dual Jain index %.3f", r.Dual.Jain)
	}
}

// TestArrangementsComparison pins the qualitative three-way outcome:
//   - single-pi2: balanced rates, shared ~20 ms delay for everyone
//   - dualpi2:    sub-ms Scalable delay; Classic keeps its target; the
//     rate ratio shifts toward DCTCP because its effective RTT
//     (base only) is now ~3x shorter than Cubic's (base + C queue) —
//     the RTT dependence RFC 9332 discusses
//   - fq-codel:   perfect isolation and low delay for both, bought with
//     per-flow state the paper's designs avoid
func TestArrangementsComparison(t *testing.T) {
	o := campaign.Options{Grid: campaign.Grid{Quick: true}}
	dq := must(DualQ(o, 1, 1))
	fqr := must(FQArrangement(o, 1, 1))

	if dq.Single.Ratio < 0.5 || dq.Single.Ratio > 2 {
		t.Errorf("single-queue ratio %.3f", dq.Single.Ratio)
	}
	if fqr.Ratio < 0.8 || fqr.Ratio > 1.25 {
		t.Errorf("fq ratio %.3f, want scheduler-enforced ~1", fqr.Ratio)
	}
	if fqr.Jain < 0.95 {
		t.Errorf("fq jain %.3f", fqr.Jain)
	}
	// Delay ordering: dual L << fq <= single shared queue.
	if !(dq.Dual.LDelayMs.Mean < fqr.DelayMs.Mean && fqr.DelayMs.Mean < dq.Single.LDelayMs.Mean) {
		t.Errorf("delay ordering violated: dualL=%.2f fq=%.2f single=%.2f",
			dq.Dual.LDelayMs.Mean, fqr.DelayMs.Mean, dq.Single.LDelayMs.Mean)
	}
	if fqr.Util < 0.9 {
		t.Errorf("fq util %.3f", fqr.Util)
	}
}

// TestRTTFairSweepShape: the equal-RTT diagonal stays near balance; when
// the Classic flow has the much longer RTT it loses ground but must not be
// starved outright.
func TestRTTFairSweepShape(t *testing.T) {
	pts := must(RTTFairSweep(campaign.Options{Grid: campaign.Grid{Quick: true}}))
	for _, p := range pts {
		if p.RTTA == p.RTTB && (p.Ratio < 0.3 || p.Ratio > 3) {
			t.Errorf("equal-RTT cell %v: ratio %.3f, want near 1", p.RTTA, p.Ratio)
		}
		if p.Ratio <= 0.01 {
			t.Errorf("cell A=%v B=%v: cubic starved (ratio %.4f)", p.RTTA, p.RTTB, p.Ratio)
		}
	}
}
