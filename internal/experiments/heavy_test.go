package experiments

import (
	"strconv"
	"testing"

	"pi2/internal/campaign"
)

// TestHeavyQuickSmoke runs the quick heavy grid (10 and 100 flows) at a deep
// time division and sanity-checks every cell: full coverage of the
// AQM × count matrix, sane fairness/utilization/delay, and nonzero
// simulator-throughput records.
func TestHeavyQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy grid in -short mode")
	}
	pts, err := Heavy(campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 10}})
	if err != nil {
		t.Fatalf("Heavy: %v", err)
	}
	if want := len(HeavyAQMs) * 2; len(pts) != want {
		t.Fatalf("got %d cells, want %d", len(pts), want)
	}
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.AQM] = true
		label := p.AQM + "/" + strconv.Itoa(p.Flows)
		if p.Flows != 10 && p.Flows != 100 {
			t.Errorf("%s: unexpected flow count", label)
		}
		if p.Jain <= 0 || p.Jain > 1.0000001 {
			t.Errorf("%s: jain = %g out of (0, 1]", label, p.Jain)
		}
		if p.Util <= 0.1 || p.Util > 1.0000001 {
			t.Errorf("%s: util = %g", label, p.Util)
		}
		if p.QMeanMs <= 0 || p.QMeanMs > 1e3 {
			t.Errorf("%s: q_mean = %g ms", label, p.QMeanMs)
		}
		if p.QP99Ms < p.QMeanMs {
			t.Errorf("%s: p99 %g ms below mean %g ms", label, p.QP99Ms, p.QMeanMs)
		}
		if p.Events == 0 || p.EventsPerSec <= 0 || p.SimSecPerWallSec <= 0 {
			t.Errorf("%s: throughput record empty: events=%d eps=%g sspws=%g",
				label, p.Events, p.EventsPerSec, p.SimSecPerWallSec)
		}
	}
	for _, a := range HeavyAQMs {
		if !seen[a] {
			t.Errorf("no cells for AQM %q", a)
		}
	}
}
