package experiments

import (
	"math/rand"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/core"
	"pi2/internal/stats"
	"pi2/internal/traffic"
)

// TestSmokePI2Reno runs 5 Reno flows through PI2 at 10 Mb/s, 100 ms RTT
// (the Figure 11a setup) and checks the basics: near-full utilization and a
// queue held near the 20 ms target.
func TestSmokePI2Reno(t *testing.T) {
	res := Run(Scenario{
		Seed:        1,
		LinkRateBps: 10e6,
		NewAQM:      func(rng *rand.Rand) aqm.AQM { return core.New(core.Config{}, rng) },
		Bulk: []traffic.BulkFlowSpec{
			{CC: "reno", Count: 5, RTT: 100 * time.Millisecond},
		},
		Duration: 60 * time.Second,
		WarmUp:   20 * time.Second,
	})
	util := res.Utilization
	if util < 0.85 {
		t.Errorf("utilization = %.3f, want >= 0.85", util)
	}
	mean := res.Sojourn.Mean()
	if mean < 0.005 || mean > 0.060 {
		t.Errorf("mean queue delay = %.1f ms, want near the 20 ms target", mean*1e3)
	}
	if res.DropsOverflow != 0 {
		t.Errorf("unexpected overflow drops: %d", res.DropsOverflow)
	}
	t.Logf("util=%.3f meanQ=%.1fms p99Q=%.1fms dropsAQM=%d prob(mean)=%.4f",
		util, mean*1e3, res.Sojourn.Percentile(99)*1e3, res.DropsAQM, res.ClassicProb.Mean())
}

// TestSmokePIEReno runs the same load through full Linux-style PIE.
func TestSmokePIEReno(t *testing.T) {
	res := Run(Scenario{
		Seed:        1,
		LinkRateBps: 10e6,
		NewAQM: func(rng *rand.Rand) aqm.AQM {
			return aqm.NewPIE(aqm.DefaultPIEConfig(), rng)
		},
		Bulk: []traffic.BulkFlowSpec{
			{CC: "reno", Count: 5, RTT: 100 * time.Millisecond},
		},
		Duration: 60 * time.Second,
		WarmUp:   20 * time.Second,
	})
	if res.Utilization < 0.85 {
		t.Errorf("utilization = %.3f, want >= 0.85", res.Utilization)
	}
	mean := res.Sojourn.Mean()
	if mean < 0.005 || mean > 0.060 {
		t.Errorf("mean queue delay = %.1f ms, want near the 20 ms target", mean*1e3)
	}
	t.Logf("util=%.3f meanQ=%.1fms p99Q=%.1fms dropsAQM=%d prob(mean)=%.4f",
		res.Utilization, mean*1e3, res.Sojourn.Percentile(99)*1e3, res.DropsAQM, res.ClassicProb.Mean())
}

// TestSmokeCoexistence runs 1 Cubic + 1 DCTCP through the coupled PI2 AQM
// at 40 Mb/s, 10 ms RTT and checks the rate balance lands near 1 — the
// paper's headline coexistence result (Figure 15).
func TestSmokeCoexistence(t *testing.T) {
	res := Run(Scenario{
		Seed:        1,
		LinkRateBps: 40e6,
		NewAQM:      func(rng *rand.Rand) aqm.AQM { return core.New(core.Config{}, rng) },
		Bulk: []traffic.BulkFlowSpec{
			{CC: "cubic", Count: 1, RTT: 10 * time.Millisecond},
			{CC: "dctcp", Count: 1, RTT: 10 * time.Millisecond},
		},
		Duration: 60 * time.Second,
		WarmUp:   20 * time.Second,
	})
	cubic := res.Groups[0].MeanPerFlow()
	dctcp := res.Groups[1].MeanPerFlow()
	if dctcp == 0 {
		t.Fatal("dctcp rate is zero")
	}
	ratio := cubic / dctcp
	t.Logf("cubic=%.2f Mb/s dctcp=%.2f Mb/s ratio=%.2f util=%.3f",
		cubic/1e6, dctcp/1e6, ratio, res.Utilization)
	if ratio < 0.33 || ratio > 3 {
		t.Errorf("cubic/dctcp ratio = %.2f, want within [1/3, 3]", ratio)
	}
}

// TestRunAssignsBulkIDs: every flow of every bulk group gets its own flow
// id, group after group, and co-located sources take the ids after them. A
// collision would route two flows' data to one receiver and starve the
// other, so every flow — and the UDP source behind them — must deliver.
func TestRunAssignsBulkIDs(t *testing.T) {
	res := Run(Scenario{
		Seed:        1,
		LinkRateBps: 10e6,
		NewAQM:      PI2Factory(20 * time.Millisecond),
		Bulk: []traffic.BulkFlowSpec{
			{CC: "reno", Count: 3, RTT: 10 * time.Millisecond},
			{CC: "cubic", Count: 0, RTT: 10 * time.Millisecond},
			{CC: "dctcp", Count: 2, RTT: 10 * time.Millisecond, Label: "B"},
		},
		UDP:      []traffic.UDPSpec{{RateBps: 1e6}},
		Duration: 2 * time.Second,
	})
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Groups))
	}
	for gi, want := range []struct {
		label string
		n     int
	}{{"reno", 3}, {"cubic", 0}, {"B", 2}} {
		g := res.Groups[gi]
		if g.Label != want.label || len(g.FlowRates) != want.n {
			t.Errorf("group %d = %q with %d flows, want %q with %d", gi, g.Label, len(g.FlowRates), want.label, want.n)
		}
		for fi, r := range g.FlowRates {
			if r <= 0 {
				t.Errorf("group %d flow %d delivered nothing", gi, fi)
			}
		}
	}
	if res.UDP[0].DeliveredBytes == 0 {
		t.Error("UDP source behind the bulk flows delivered nothing")
	}
}

func TestRunUnknownCCPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown CC did not panic")
		}
	}()
	Run(Scenario{
		LinkRateBps: 10e6,
		NewAQM:      PI2Factory(20 * time.Millisecond),
		Bulk:        []traffic.BulkFlowSpec{{CC: "nope", Count: 1}},
	})
}

// TestRunSizesSeriesOnce: Run reserves each time series' samples up front,
// exactly as many as its sampler takes, on one loop and on several.
func TestRunSizesSeriesOnce(t *testing.T) {
	for _, shards := range []int{0, 3} {
		res := Run(Scenario{
			Seed:        1,
			LinkRateBps: 10e6,
			NewAQM:      func(rng *rand.Rand) aqm.AQM { return core.New(core.Config{}, rng) },
			Bulk: []traffic.BulkFlowSpec{
				{CC: "reno", Count: 3, RTT: 40 * time.Millisecond},
				{CC: "dctcp", Count: 2, RTT: 40 * time.Millisecond},
			},
			Duration:    5 * time.Second,
			WarmUp:      time.Second,
			SampleEvery: 500 * time.Millisecond,
			Shards:      shards,
		})
		for name, ts := range map[string]*stats.TimeSeries{
			"delay": &res.DelaySeries, "fine": &res.DelayFine, "goodput": &res.GoodputSeries,
		} {
			if n := int(5 * time.Second / ts.Interval); len(ts.Values) != n || cap(ts.Values) != n || cap(ts.Times) != n {
				t.Errorf("shards %d, %s series: %d samples in %d/%d slots, want %d", shards, name,
					len(ts.Values), cap(ts.Values), cap(ts.Times), n)
			}
		}
	}
}
