package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/traffic"
)

// Fig6Result holds the Figure 6 comparison: plain PI vs PI2 queue delay
// under the varying-intensity schedule at 100 Mb/s, 10 ms RTT.
type Fig6Result struct {
	PI, PI2 *Result
	Stages  []int
}

// fig6Counts is the staged flow schedule shared by Fig6 and Fig13.
var fig6Counts = []int{10, 30, 50, 30, 10}

// fig6Tasks builds the Figure 6 matrix: both arms share seed index 0 so
// they see identical traffic schedules — the comparison is paired, exactly
// as on a testbed.
func fig6Tasks(o campaign.Options) []campaign.Task {
	stageLen := o.Scale(50 * time.Second)
	base := Scenario{
		LinkRateBps: 100e6,
		Staged: &StagedSpec{
			CC:       "reno",
			RTT:      10 * time.Millisecond,
			Counts:   fig6Counts,
			StageLen: stageLen,
		},
		Duration: time.Duration(len(fig6Counts)) * stageLen,
		WarmUp:   stageLen / 2,
	}
	target := 20 * time.Millisecond
	return []campaign.Task{
		variantTask("fig6/pi", 0, base, PIFactory(target)),
		variantTask("fig6/pi2", 0, base, PI2Factory(target)),
	}
}

// Fig6 runs the Figure 6 experiment: 10:30:50:30:10 Reno flows over 50 s
// stages, link 100 Mb/s, RTT 10 ms, α_PI = 0.125, β_PI = 1.25,
// α_PI2 = 0.3125, β_PI2 = 3.125, T = 32 ms, target 20 ms.
func Fig6(o campaign.Options) (*Fig6Result, error) {
	rs, err := results(fig6Tasks(o), execFor(o, "fig6", gridSpec{}))
	return &Fig6Result{PI: rs[0], PI2: rs[1], Stages: fig6Counts}, err
}

// variantTask builds the common paired-arm task: the base scenario with one
// AQM swapped in, run under the seed derived for seedIndex.
func variantTask(name string, seedIndex int, base Scenario, factory AQMFactory) campaign.Task {
	return campaign.Task{
		Name:      name,
		SeedIndex: seedIndex,
		Run: func(tc *campaign.TaskCtx) any {
			sc := base
			sc.Seed = tc.Seed
			sc.NewAQM = factory
			sc.Watch = tc.Watch
			return Run(sc)
		},
	}
}

// Print writes the queue-delay time series side by side, as in the figure.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 6: queue delay under varying traffic intensity (100 Mb/s, RTT 10 ms)")
	fmt.Fprintln(w, "# flows 10:30:50:30:10; 'pi' = fixed-gain linear PI, 'pi2' = squared output")
	fmt.Fprintln(w, "time_s\tpi_qdelay_ms\tpi2_qdelay_ms")
	printSeriesPair(w, r.PI, r.PI2)
	fmt.Fprintf(w, "# summary: pi max=%.1f ms mean=%.1f ms | pi2 max=%.1f ms mean=%.1f ms\n",
		r.PI.DelaySeries.Max()*1e3, r.PI.Sojourn.Mean()*1e3,
		r.PI2.DelaySeries.Max()*1e3, r.PI2.Sojourn.Mean()*1e3)
}

// Fig11Result holds the three traffic-load comparisons of Figure 11.
type Fig11Result struct {
	// Loads are "5 TCP", "50 TCP", "5 TCP + 2 UDP"; each maps variant
	// ("pie"/"pi2") to its run.
	Loads []string
	Runs  map[string]map[string]*Result // load → variant → result
}

// fig11Case is one traffic load of Figure 11.
type fig11Case struct {
	load string
	sc   Scenario
}

func fig11Cases(o campaign.Options) []fig11Case {
	dur := o.Scale(100 * time.Second)
	warm := dur / 4
	mkBase := func(tcpFlows int, udp bool) Scenario {
		sc := Scenario{
			LinkRateBps: 10e6,
			Bulk: []traffic.BulkFlowSpec{
				{CC: "reno", Count: tcpFlows, RTT: 100 * time.Millisecond},
			},
			Duration: dur,
			WarmUp:   warm,
		}
		if udp {
			sc.UDP = []traffic.UDPSpec{
				{RateBps: 6e6}, {RateBps: 6e6},
			}
		}
		return sc
	}
	return []fig11Case{
		{"5 TCP", mkBase(5, false)},
		{"50 TCP", mkBase(50, false)},
		{"5 TCP + 2 UDP", mkBase(5, true)},
	}
}

// fig11Tasks builds the load × variant matrix; the two variants of one
// load share a seed index (paired comparison on identical traffic).
func fig11Tasks(o campaign.Options) []campaign.Task {
	target := 20 * time.Millisecond
	var tasks []campaign.Task
	for i, c := range fig11Cases(o) {
		tasks = append(tasks,
			variantTask("fig11/pie/"+c.load, i, c.sc, PIEFactory(target)),
			variantTask("fig11/pi2/"+c.load, i, c.sc, PI2Factory(target)))
	}
	return tasks
}

// Fig11 runs Figure 11: queuing latency and total throughput for
// a) 5 TCP, b) 50 TCP, c) 5 TCP + 2×6 Mb/s UDP; link 10 Mb/s, RTT 100 ms.
func Fig11(o campaign.Options) (*Fig11Result, error) {
	res := &Fig11Result{
		Loads: []string{"5 TCP", "50 TCP", "5 TCP + 2 UDP"},
		Runs:  make(map[string]map[string]*Result),
	}
	rs, err := results(fig11Tasks(o), execFor(o, "fig11", gridSpec{}))
	for i, c := range fig11Cases(o) {
		res.Runs[c.load] = map[string]*Result{"pie": rs[2*i], "pi2": rs[2*i+1]}
	}
	return res, err
}

// Print writes per-load delay/throughput series and summaries.
func (r *Fig11Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 11: queuing latency and throughput under various traffic loads")
	fmt.Fprintln(w, "# link 10 Mb/s, RTT 100 ms, target 20 ms")
	for _, load := range r.Loads {
		pie, pi2 := r.Runs[load]["pie"], r.Runs[load]["pi2"]
		fmt.Fprintf(w, "\n## load: %s\n", load)
		fmt.Fprintln(w, "time_s\tpie_qdelay_ms\tpi2_qdelay_ms\tpie_thru_mbps\tpi2_thru_mbps")
		n := min(pie.DelaySeries.Len(), pi2.DelaySeries.Len())
		for i := 0; i < n; i++ {
			fmt.Fprintf(w, "%.0f\t%.2f\t%.2f\t%.3f\t%.3f\n",
				pie.DelaySeries.Times[i].Seconds(),
				pie.DelaySeries.Values[i]*1e3, pi2.DelaySeries.Values[i]*1e3,
				pie.GoodputSeries.Values[i]/1e6, pi2.GoodputSeries.Values[i]/1e6)
		}
		fmt.Fprintf(w, "# %s: pie meanQ=%.1fms p99Q=%.1fms util=%.3f | pi2 meanQ=%.1fms p99Q=%.1fms util=%.3f\n",
			load,
			pie.Sojourn.Mean()*1e3, pie.Sojourn.Percentile(99)*1e3, pie.Utilization,
			pi2.Sojourn.Mean()*1e3, pi2.Sojourn.Percentile(99)*1e3, pi2.Utilization)
		// A failed arm stands in with no UDP sources: print the ones both report.
		for i := range min(len(pie.UDP), len(pi2.UDP)) {
			fmt.Fprintf(w, "# %s: udp[%d] %s: pie delivered=%.2f Mb/s loss=%.1f%% | pi2 delivered=%.2f Mb/s loss=%.1f%%\n",
				load, i, fmtMbps(pi2.UDP[i].RateBps),
				pie.UDP[i].DeliveredBps/1e6, pie.UDP[i].LossRatio*100,
				pi2.UDP[i].DeliveredBps/1e6, pi2.UDP[i].LossRatio*100)
		}
	}
}

func fmtMbps(bps float64) string { return fmt.Sprintf("%.0f Mb/s offered", bps/1e6) }

// Fig12Result holds the varying-link-capacity comparison.
type Fig12Result struct {
	PIE, PI2 *Result
	// PeakPIEms / PeakPI2ms are the peak 100 ms-sampled queue delays just
	// after the capacity drop (the paper reports 510 ms vs 250 ms).
	PeakPIEms, PeakPI2ms float64
}

// Fig12 runs Figure 12: link capacity 100:20:100 Mb/s over 50 s stages,
// 20 Reno flows, RTT 100 ms. The capacity drop at 50 s forces the queue to
// spike; PI2's higher gain drains it faster with less oscillation.
func fig12Tasks(o campaign.Options) []campaign.Task {
	stage := o.Scale(50 * time.Second)
	target := 20 * time.Millisecond
	base := Scenario{
		LinkRateBps: 100e6,
		Bulk: []traffic.BulkFlowSpec{
			{CC: "reno", Count: 20, RTT: 100 * time.Millisecond},
		},
		RateChanges: []RateChange{
			{At: stage, RateBps: 20e6},
			{At: 2 * stage, RateBps: 100e6},
		},
		Duration: 3 * stage,
		WarmUp:   stage / 2,
	}
	return []campaign.Task{
		variantTask("fig12/pie", 0, base, PIEFactory(target)),
		variantTask("fig12/pi2", 0, base, PI2Factory(target)),
	}
}

func Fig12(o campaign.Options) (*Fig12Result, error) {
	stage := o.Scale(50 * time.Second)
	rs, err := results(fig12Tasks(o), execFor(o, "fig12", gridSpec{}))
	r := &Fig12Result{PIE: rs[0], PI2: rs[1]}
	// Peak in the window following the capacity drop.
	r.PeakPIEms = peakBetween(r.PIE, stage, stage+stage/2) * 1e3
	r.PeakPI2ms = peakBetween(r.PI2, stage, stage+stage/2) * 1e3
	return r, err
}

func peakBetween(res *Result, from, to time.Duration) float64 {
	peak := 0.0
	for i, v := range res.DelayFine.Values {
		t := res.DelayFine.Times[i]
		if t >= from && t <= to && v > peak {
			peak = v
		}
	}
	return peak
}

// Print writes the delay series and the post-drop peaks.
func (r *Fig12Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 12: queue delay under varying link capacity (100:20:100 Mb/s)")
	fmt.Fprintln(w, "time_s\tpie_qdelay_ms\tpi2_qdelay_ms")
	printSeriesPair(w, r.PIE, r.PI2)
	fmt.Fprintf(w, "# peak qdelay after capacity drop (100 ms sampling): pie=%.0f ms pi2=%.0f ms (paper: 510 vs 250)\n",
		r.PeakPIEms, r.PeakPI2ms)
}

// Fig13Result holds the low-rate varying-intensity comparison.
type Fig13Result struct {
	PIE, PI2 *Result
}

// Fig13 runs Figure 13: the 10:30:50:30:10 staged schedule at 10 Mb/s,
// RTT 100 ms, comparing PIE and PI2.
func fig13Tasks(o campaign.Options) []campaign.Task {
	stageLen := o.Scale(50 * time.Second)
	target := 20 * time.Millisecond
	base := Scenario{
		LinkRateBps: 10e6,
		Staged: &StagedSpec{
			CC:       "reno",
			RTT:      100 * time.Millisecond,
			Counts:   fig6Counts,
			StageLen: stageLen,
		},
		Duration: time.Duration(len(fig6Counts)) * stageLen,
		WarmUp:   stageLen / 2,
	}
	return []campaign.Task{
		variantTask("fig13/pie", 0, base, PIEFactory(target)),
		variantTask("fig13/pi2", 0, base, PI2Factory(target)),
	}
}

func Fig13(o campaign.Options) (*Fig13Result, error) {
	rs, err := results(fig13Tasks(o), execFor(o, "fig13", gridSpec{}))
	return &Fig13Result{PIE: rs[0], PI2: rs[1]}, err
}

// Print writes the queue-delay series.
func (r *Fig13Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 13: queue delay under varying traffic intensity (10 Mb/s, RTT 100 ms)")
	fmt.Fprintln(w, "time_s\tpie_qdelay_ms\tpi2_qdelay_ms")
	printSeriesPair(w, r.PIE, r.PI2)
	fmt.Fprintf(w, "# summary: pie max=%.1f ms | pi2 max=%.1f ms\n",
		r.PIE.DelaySeries.Max()*1e3, r.PI2.DelaySeries.Max()*1e3)
}

// Fig14Case is one (target, load) cell of Figure 14.
type Fig14Case struct {
	Target time.Duration
	Load   string
	PIE    *Result
	PI2    *Result
}

// Fig14Result holds the queuing-delay CDF comparison.
type Fig14Result struct {
	Cases []Fig14Case
}

// Fig14 runs Figure 14: per-packet queuing-delay CDFs for target delays of
// 5 ms and 20 ms under a) 20 TCP flows and b) 5 TCP + 2 UDP flows
// (10 Mb/s, RTT 100 ms).
// fig14Cases enumerates the (target, load) grid in matrix order.
func fig14Cases() []Fig14Case {
	var cases []Fig14Case
	for _, target := range []time.Duration{5 * time.Millisecond, 20 * time.Millisecond} {
		for _, load := range []string{"20 TCP", "5 TCP + 2 UDP"} {
			cases = append(cases, Fig14Case{Target: target, Load: load})
		}
	}
	return cases
}

func fig14Tasks(o campaign.Options) []campaign.Task {
	dur := o.Scale(100 * time.Second)
	warm := dur / 4
	var tasks []campaign.Task
	for cell, c := range fig14Cases() {
		sc := Scenario{
			LinkRateBps: 10e6,
			Duration:    dur,
			WarmUp:      warm,
		}
		if c.Load == "20 TCP" {
			sc.Bulk = []traffic.BulkFlowSpec{{CC: "reno", Count: 20, RTT: 100 * time.Millisecond}}
		} else {
			sc.Bulk = []traffic.BulkFlowSpec{{CC: "reno", Count: 5, RTT: 100 * time.Millisecond}}
			sc.UDP = []traffic.UDPSpec{{RateBps: 6e6}, {RateBps: 6e6}}
		}
		// The PIE and PI2 arms of one (target, load) cell pair up on the
		// cell's seed index.
		name := fmt.Sprintf("fig14/%v/%s", c.Target, c.Load)
		tasks = append(tasks,
			variantTask(name+"/pie", cell, sc, PIEFactory(c.Target)),
			variantTask(name+"/pi2", cell, sc, PI2Factory(c.Target)))
	}
	return tasks
}

func Fig14(o campaign.Options) (*Fig14Result, error) {
	res := &Fig14Result{Cases: fig14Cases()}
	rs, err := results(fig14Tasks(o), execFor(o, "fig14", gridSpec{}))
	for i := range res.Cases {
		res.Cases[i].PIE, res.Cases[i].PI2 = rs[2*i], rs[2*i+1]
	}
	return res, err
}

// Print writes each case's CDF as paired columns.
func (r *Fig14Result) Print(w io.Writer) {
	fmt.Fprintln(w, "# Figure 14: queuing-delay CDFs (10 Mb/s, RTT 100 ms)")
	for _, c := range r.Cases {
		fmt.Fprintf(w, "\n## target %v, load %s\n", c.Target, c.Load)
		fmt.Fprintln(w, "percentile\tpie_qdelay_ms\tpi2_qdelay_ms")
		qs := []float64{1, 5, 10, 25, 50, 75, 90, 95, 99, 99.9}
		pie := c.PIE.Sojourn.Percentiles(qs...)
		pi2 := c.PI2.Sojourn.Percentiles(qs...)
		for i, q := range qs {
			fmt.Fprintf(w, "%.1f\t%.2f\t%.2f\n", q, pie[i]*1e3, pi2[i]*1e3)
		}
	}
}

// printSeriesPair prints two delay series with a shared time column.
func printSeriesPair(w io.Writer, a, b *Result) {
	n := min(a.DelaySeries.Len(), b.DelaySeries.Len())
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%.0f\t%.2f\t%.2f\n",
			a.DelaySeries.Times[i].Seconds(),
			a.DelaySeries.Values[i]*1e3, b.DelaySeries.Values[i]*1e3)
	}
}
