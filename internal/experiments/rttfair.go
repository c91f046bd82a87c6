package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/traffic"
)

// RTTFairPoint is one cell of the RTT-heterogeneity sweep: a Cubic flow at
// rttA against a DCTCP flow at rttB through the coupled PI2 queue.
type RTTFairPoint struct {
	RTTA, RTTB time.Duration
	Ratio      float64 // cubic / dctcp goodput
	QMeanMs    float64
	// Events is the cell's simulator-event count (run-record metric).
	Events uint64
}

// EventCount satisfies campaign.EventCounter for per-run events/sec records.
func (p RTTFairPoint) EventCount() uint64 { return p.Events }

// RTTFairSweep extends Figure 15 beyond the paper's equal-RTT setting:
// it crosses Classic and Scalable base RTTs and reports the rate balance.
// Equation (14) assumes equal RTTs; this sweep shows how far coexistence
// stretches when they differ (classic TCP RTT-unfairness compounds with
// the coupling).
func RTTFairSweep(o campaign.Options) ([]RTTFairPoint, error) {
	return grid(rttfairTasks(o), execFor(o, "rttfair", gridSpec{}), 1, cell[RTTFairPoint])
}

// rttfairTasks builds the RTT-cross matrix.
func rttfairTasks(o campaign.Options) []campaign.Task {
	rtts := []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond}
	if o.Quick {
		rtts = []time.Duration{5 * time.Millisecond, 80 * time.Millisecond}
	}
	var tasks []campaign.Task
	for _, ra := range rtts {
		for _, rb := range rtts {
			ra, rb := ra, rb
			tasks = append(tasks, campaign.Task{
				Name:      "rttfair",
				SeedIndex: len(tasks),
				Params: map[string]any{
					"rtt_a_ms": ra.Seconds() * 1e3, "rtt_b_ms": rb.Seconds() * 1e3,
				},
				Run: func(tc *campaign.TaskCtx) any {
					dur := o.Scale(100 * time.Second)
					res := Run(Scenario{
						Seed:        tc.Seed,
						Watch:       tc.Watch,
						LinkRateBps: 40e6,
						NewAQM:      PI2Factory(20 * time.Millisecond),
						Bulk: []traffic.BulkFlowSpec{
							{CC: "cubic", Count: 1, RTT: ra, Label: "A"},
							{CC: "dctcp", Count: 1, RTT: rb, Label: "B"},
						},
						Duration: dur,
						WarmUp:   dur * 2 / 5,
					})
					return RTTFairPoint{
						RTTA: ra, RTTB: rb,
						Ratio:   perFlowRatio(res),
						QMeanMs: res.Sojourn.Mean() * 1e3,
						Events:  res.Events,
					}
				},
			})
		}
	}
	return tasks
}

// PrintRTTFair writes the sweep as a table.
func PrintRTTFair(w io.Writer, pts []RTTFairPoint) {
	fmt.Fprintln(w, "# RTT-heterogeneity sweep: 1 Cubic (RTT A) vs 1 DCTCP (RTT B), PI2, 40 Mb/s")
	fmt.Fprintln(w, "# equation (14)'s equal-rate coupling assumes RTT A = RTT B; off-diagonal cells")
	fmt.Fprintln(w, "# show classic RTT unfairness compounding with the coupling")
	fmt.Fprintln(w, "rttA_ms\trttB_ms\tcubic/dctcp\tqdelay_mean_ms")
	for _, p := range pts {
		fmt.Fprintf(w, "%.0f\t%.0f\t%.3f\t%.2f\n",
			float64(p.RTTA.Milliseconds()), float64(p.RTTB.Milliseconds()), p.Ratio, p.QMeanMs)
	}
}
