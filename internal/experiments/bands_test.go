package experiments

import (
	"reflect"
	"strings"
	"testing"

	"pi2/internal/campaign"
	"pi2/internal/stats"
)

// TestAggregateHeavyBands: synthetic three-rep cell — the aggregate must
// report the cross-seed mean with a positive CI half-width, pool the sojourn
// histograms, and merge the per-flow-rate accumulators.
func TestAggregateHeavyBands(t *testing.T) {
	mk := func(jain, qmeanSec float64, rates ...float64) HeavyPoint {
		p := HeavyPoint{Flows: 10, AQM: "pi2", Jain: jain, Util: 1,
			QMeanMs: qmeanSec * 1e3, QP99Ms: qmeanSec * 1e3, Events: 100}
		p.Soj = stats.NewDelayHistogram()
		p.Soj.Add(qmeanSec)
		for _, r := range rates {
			p.RateW.Add(r)
		}
		return p
	}
	pts := []HeavyPoint{
		mk(0.90, 0.010, 1e6, 2e6),
		mk(0.94, 0.020, 1.5e6, 1.5e6),
		mk(0.92, 0.030, 2e6, 1e6),
	}
	agg := aggregateHeavy(pts)
	if agg.Reps != 3 {
		t.Fatalf("Reps = %d, want 3", agg.Reps)
	}
	if agg.Jain < 0.9199 || agg.Jain > 0.9201 {
		t.Errorf("Jain mean = %.4f, want 0.92", agg.Jain)
	}
	if agg.JainHW <= 0 {
		t.Error("JainHW not positive for spread reps")
	}
	if agg.Soj.N() != 3 {
		t.Errorf("pooled sojourn holds %d samples, want 3", agg.Soj.N())
	}
	if agg.RateW.N() != 6 {
		t.Errorf("merged rate accumulator holds %d flows, want 6", agg.RateW.N())
	}
	if agg.RateCoV <= 0 {
		t.Error("RateCoV not positive for uneven rates")
	}
	// Single rep must pass through untouched — the reps=1 tables' byte
	// stability rides on this.
	if !reflect.DeepEqual(aggregateHeavy(pts[:1]), pts[0]) {
		t.Error("single-rep aggregation is not the identity")
	}
}

// TestSweepRepsBands runs a real (tiny) sweep at reps=2 and checks the
// aggregate plumbing end to end: every point carries Reps=2, a pooled
// sojourn sample and finite bands, and the banded printers emit ± columns.
func TestSweepRepsBands(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	pts := must(CoexistenceSweep(campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 40, Reps: 2}, ExecOptions: campaign.ExecOptions{Jobs: 4}}))
	if len(pts) == 0 {
		t.Fatal("no sweep points")
	}
	for _, p := range pts {
		if p.Reps != 2 {
			t.Fatalf("point %s/%s Reps = %d, want 2", p.Pair, p.AQM, p.Reps)
		}
		if p.Soj == nil || p.Soj.N() == 0 {
			t.Fatalf("point %s/%s has no pooled sojourn sample", p.Pair, p.AQM)
		}
		if p.RatioHW < 0 || p.QMeanHW < 0 {
			t.Fatalf("negative half-width on %s/%s", p.Pair, p.AQM)
		}
	}
	var b15, b16 strings.Builder
	PrintFig15(&b15, pts)
	PrintFig16(&b16, pts)
	if !strings.Contains(b15.String(), "ratio_ci") || !strings.Contains(b15.String(), "±") {
		t.Error("PrintFig15 did not switch to the banded layout")
	}
	if !strings.Contains(b16.String(), "qdelay_p99_ci") {
		t.Error("PrintFig16 did not switch to the banded layout")
	}
	// And at reps=1 the printers keep the historical header exactly.
	single := must(CoexistenceSweep(campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 40}, ExecOptions: campaign.ExecOptions{Jobs: 4}}))
	var s15 strings.Builder
	PrintFig15(&s15, single)
	if strings.Contains(s15.String(), "ratio_ci") {
		t.Error("reps=1 output grew a band column; goldens would break")
	}
}

// TestHeavyRepsBands: the heavy driver at reps=2 aggregates each cell and
// the banded table prints; reps=1 keeps the historical header.
func TestHeavyRepsBands(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	pts, err := Heavy(campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 40, Reps: 2}, ExecOptions: campaign.ExecOptions{Jobs: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 { // 3 AQMs x {10, 100} flows, one aggregate per cell
		t.Fatalf("got %d aggregated points, want 6", len(pts))
	}
	for _, p := range pts {
		if p.Reps != 2 {
			t.Fatalf("%s/%d Reps = %d, want 2", p.AQM, p.Flows, p.Reps)
		}
		if p.Soj == nil || p.Soj.N() == 0 {
			t.Fatalf("%s/%d has no pooled sojourn histogram", p.AQM, p.Flows)
		}
	}
	var banded strings.Builder
	PrintHeavy(&banded, pts)
	if !strings.Contains(banded.String(), "rate_cov") {
		t.Error("PrintHeavy did not switch to the banded layout")
	}
}
