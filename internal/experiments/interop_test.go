package experiments

import (
	"reflect"
	"testing"
	"time"

	"pi2/internal/campaign"
)

// quickInterop runs the whole conformance matrix at smoke scale.
func quickInterop(t *testing.T, o campaign.Options) []InteropPoint {
	t.Helper()
	o.Quick = true
	if o.TimeDiv == 0 {
		o.TimeDiv = 40
	}
	pts, err := Interop(o)
	if err != nil {
		t.Fatalf("interop failed: %v", err)
	}
	return pts
}

// TestInteropIdenticalAcrossJobs: conformance fingerprints must not depend
// on worker-pool scheduling — per-cell seeds are a pure function of the
// cell's grid index.
func TestInteropIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	serial := quickInterop(t, campaign.Options{ExecOptions: campaign.ExecOptions{Jobs: 1}})
	wide := quickInterop(t, campaign.Options{ExecOptions: campaign.ExecOptions{Jobs: 8}})
	if !reflect.DeepEqual(serial, wide) {
		t.Fatal("interop points differ between jobs=1 and jobs=8")
	}
}

// TestInteropIdenticalAcrossShards pins the contract that interop cells
// always run on the single-simulator path: the sharded engine is
// deterministic per shard count but NOT bit-identical across counts, so a
// conformance cell that honored -shards would break golden fingerprints.
// Interop must therefore produce identical bytes at any -shards setting.
func TestInteropIdenticalAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	one := quickInterop(t, campaign.Options{ExecOptions: campaign.ExecOptions{Jobs: 4, Shards: 1}})
	four := quickInterop(t, campaign.Options{ExecOptions: campaign.ExecOptions{Jobs: 4, Shards: 4}})
	if !reflect.DeepEqual(one, four) {
		t.Fatal("interop points differ between shards=1 and shards=4")
	}
}

// TestInteropPragueCubicFairness asserts the tentpole invariant: TCP Prague
// through DualPI2 takes the same rate as loss-based Cubic at equal RTT —
// the coupled AQM's design goal and the reason the aiFactor exponent was
// calibrated (see tcp.Prague). Each seed must land near parity and the
// seed-mean must sit within [0.9, 1.1] at the paper's default 20 ms target.
func TestInteropPragueCubicFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon cells in -short mode")
	}
	o := campaign.Options{Grid: campaign.Grid{TimeDiv: 2}} // 30 s horizon: long enough for the coupled equilibrium
	var sum float64
	for _, seed := range []int64{1, 2, 3} {
		p := InteropCell(o, seed, nil, "prague", "accurate", "dualpi2")
		t.Logf("seed %d: prague/cubic rate ratio %.3f (share %.3f, q_mean %.2f ms)",
			seed, p.RateRatio, p.TestShare, p.QMeanMs)
		if p.RateRatio < 0.8 || p.RateRatio > 1.2 {
			t.Errorf("seed %d: rate ratio %.3f outside [0.8, 1.2]", seed, p.RateRatio)
		}
		sum += p.RateRatio
	}
	if mean := sum / 3; mean < 0.9 || mean > 1.1 {
		t.Errorf("mean prague/cubic rate ratio %.3f outside the [0.9, 1.1] invariant", mean)
	}
}

// TestInteropCellMetricsComplete: every fingerprinted metric must be present
// and finite so the golden harness never diffs against a silent zero.
func TestInteropCellMetricsComplete(t *testing.T) {
	o := campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 40, Target: 20 * time.Millisecond}}
	p := InteropCell(o, 7, nil, "dctcp", "accurate", "pi2")
	m := p.Metrics()
	for _, k := range []string{"test_share", "rate_ratio", "marks", "drops_total",
		"q_mean_ms", "q_p99_ms", "util", "jain", "events"} {
		if _, ok := m[k]; !ok {
			t.Errorf("metric %q missing from fingerprint", k)
		}
	}
	if p.TestShare <= 0 || p.Util <= 0 || p.Events == 0 {
		t.Errorf("degenerate cell: share=%v util=%v events=%v", p.TestShare, p.Util, p.Events)
	}
}
