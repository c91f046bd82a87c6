package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/stats"
	"pi2/internal/traffic"
)

// SweepLinksMbps and SweepRTTs are the paper's coexistence grid
// (Figures 15–18): every combination of link rate and base RTT.
var (
	SweepLinksMbps = []float64{4, 12, 40, 120, 200}
	SweepRTTs      = []time.Duration{
		5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond,
		50 * time.Millisecond, 100 * time.Millisecond,
	}
)

// SweepPoint is one cell of the coexistence sweep: one Cubic flow (A,
// non-ECN) against one ECN-capable flow (B: DCTCP or ECN-Cubic), through
// one AQM.
type SweepPoint struct {
	LinkMbps float64
	RTT      time.Duration
	AQM      string // "pie" or "pi2"
	Pair     string // "dctcp" or "ecn-cubic"

	// RateA and RateB are the two flows' goodputs in bits/s; Ratio is
	// A/B (non-ECN over ECN-capable), the paper's rate-balance metric.
	RateA, RateB float64
	Ratio        float64

	// Queue delay per packet over the measurement window (seconds).
	QMean, QP99 float64
	// Probability samples: Classic drop/mark prob for A, Scalable mark
	// prob for B (B falls back to the classic probability under PIE,
	// which applies one probability to everything).
	ProbA, ProbB Quantiles
	// Link utilization per sampling interval.
	Util Quantiles
	// Events is the cell's simulator-event count (run-record metric).
	Events uint64

	// Reps > 1 marks a cross-seed aggregate (-reps N): rates and
	// probability/utilization quantiles are cross-seed means, queue-delay
	// quantiles come from the reps' pooled sojourn histograms (Merge),
	// and the *HW fields are 95% confidence half-widths. Reps <= 1 is a
	// single run with all of these zero.
	Reps                     int
	RatioHW, QMeanHW, QP99HW float64

	// Soj is this rep's sojourn histogram (pooled across reps via Merge).
	// Exported so it survives the fleet wire (gob drops unexported
	// fields); excluded from -json, which never carried it.
	Soj *stats.LogHistogram `json:"-"`
}

// EventCount satisfies campaign.EventCounter for per-run events/sec records.
func (p SweepPoint) EventCount() uint64 { return p.Events }

// Quantiles summarizes a sample with the percentiles the figures plot.
type Quantiles struct {
	P1, P25, Mean, P99 float64
}

// sweepTasks builds the pair × AQM × link × RTT (× rep) matrix. The
// innermost rep loop keeps SeedIndex = len(tasks): at reps=1 the cell→seed
// mapping is exactly the historical one, so the golden sweep tables stay
// byte-identical.
func sweepTasks(o campaign.Options) []campaign.Task {
	links := SweepLinksMbps
	rtts := SweepRTTs
	if o.Quick {
		links = []float64{4, 40, 200}
		rtts = []time.Duration{10 * time.Millisecond, 100 * time.Millisecond}
	}
	reps := o.RepCount()
	var tasks []campaign.Task
	for _, pair := range []string{"dctcp", "ecn-cubic"} {
		for _, aqmName := range []string{"pie", "pi2"} {
			for _, linkMbps := range links {
				for _, rtt := range rtts {
					for rep := 0; rep < reps; rep++ {
						pair, aqmName, linkMbps, rtt := pair, aqmName, linkMbps, rtt
						tasks = append(tasks, campaign.Task{
							Name:      "sweep",
							SeedIndex: len(tasks),
							Params: map[string]any{
								"pair": pair, "aqm": aqmName,
								"link_mbps": linkMbps, "rtt_ms": rtt.Seconds() * 1e3,
								"rep": rep,
							},
							Run: func(tc *campaign.TaskCtx) any {
								return runSweepPoint(o, tc, linkMbps, rtt, aqmName, pair)
							},
						})
					}
				}
			}
		}
	}
	return tasks
}

// CoexistenceSweep runs the full Figures 15–18 grid: for each link × RTT,
// each pair (Cubic vs DCTCP, Cubic vs ECN-Cubic) and each AQM (PIE, PI2).
// One call produces the data for all four figures. The grid's cells are
// independent single-bottleneck runs, so they fan out across o.Jobs workers
// (or a worker-process fleet); output order and values depend only on the
// matrix, never on scheduling. Records stream: each cell's reps aggregate
// as soon as the group completes and the full records are dropped, so peak
// memory holds per-group points, not the grid.
func CoexistenceSweep(o campaign.Options) []SweepPoint {
	tasks := sweepTasks(o)
	reps := o.RepCount()
	out := make([]SweepPoint, len(tasks)/reps)
	groupFold(tasks, execFor(o, "sweep", gridSpec{}), reps, func(group int, recs []campaign.RunRecord) {
		var pts []SweepPoint
		for _, rec := range recs {
			if p, ok := rec.Result.(SweepPoint); ok {
				pts = append(pts, p)
			}
		}
		if len(pts) == 0 {
			out[group] = SweepPoint{}
			return
		}
		out[group] = aggregateSweep(pts)
	})
	return out
}

// aggregateSweep folds one cell's repetitions into a banded point: rates and
// the probability/utilization quantiles become cross-seed means, queue-delay
// quantiles are recomputed over the reps' pooled sojourn histograms
// (LogHistogram.Merge), and the ratio/queue-delay half-widths are 95% CIs over the
// per-rep values. One rep passes through untouched (golden-stable).
func aggregateSweep(pts []SweepPoint) SweepPoint {
	if len(pts) == 1 {
		return pts[0]
	}
	agg := pts[0]
	var rateA, rateB, ratio, qmean, qp99 stats.Welford
	pooled := stats.NewDelayHistogram()
	var probA, probB, util quantilesWelford
	var events uint64
	for _, p := range pts {
		rateA.Add(p.RateA)
		rateB.Add(p.RateB)
		ratio.Add(p.Ratio)
		qmean.Add(p.QMean)
		qp99.Add(p.QP99)
		if p.Soj != nil {
			pooled.Merge(p.Soj)
		}
		probA.add(p.ProbA)
		probB.add(p.ProbB)
		util.add(p.Util)
		events += p.Events
	}
	agg.Reps = len(pts)
	agg.RateA, agg.RateB = rateA.Mean(), rateB.Mean()
	agg.Ratio, agg.RatioHW = ratio.Mean(), ci95(ratio)
	agg.QMeanHW, agg.QP99HW = ci95(qmean), ci95(qp99)
	if pooled.N() > 0 {
		agg.QMean = pooled.Mean()
		agg.QP99 = pooled.Percentile(99)
	} else {
		agg.QMean, agg.QP99 = qmean.Mean(), qp99.Mean()
	}
	agg.ProbA, agg.ProbB, agg.Util = probA.mean(), probB.mean(), util.mean()
	agg.Events = events / uint64(len(pts))
	agg.Soj = pooled
	return agg
}

// quantilesWelford accumulates Quantiles element-wise across repetitions.
type quantilesWelford struct {
	p1, p25, mid, p99 stats.Welford
}

func (q *quantilesWelford) add(v Quantiles) {
	q.p1.Add(v.P1)
	q.p25.Add(v.P25)
	q.mid.Add(v.Mean)
	q.p99.Add(v.P99)
}

func (q *quantilesWelford) mean() Quantiles {
	return Quantiles{P1: q.p1.Mean(), P25: q.p25.Mean(), Mean: q.mid.Mean(), P99: q.p99.Mean()}
}

func runSweepPoint(o campaign.Options, tc *campaign.TaskCtx, linkMbps float64, rtt time.Duration, aqmName, pair string) SweepPoint {
	target := o.TargetDelay()
	factory, ok := FactoryByName(aqmName, target)
	if !ok {
		panic("unknown AQM " + aqmName)
	}
	// Converge for longer on big-BDP cells; measure over the second part.
	dur := o.Scale(100 * time.Second)
	sc := Scenario{
		Seed:        tc.Seed,
		Watch:       tc.Watch,
		Shards:      tc.Shards,
		LinkRateBps: linkMbps * 1e6,
		NewAQM:      factory,
		Bulk: []traffic.BulkFlowSpec{
			{CC: "cubic", Count: 1, RTT: rtt, Label: "A"},
			{CC: pair, Count: 1, RTT: rtt, Label: "B"},
		},
		Duration: dur,
		WarmUp:   dur * 2 / 5,
	}
	res := Run(sc)
	pt := SweepPoint{
		LinkMbps: linkMbps, RTT: rtt, AQM: aqmName, Pair: pair,
		RateA:  res.Groups[0].MeanPerFlow(),
		RateB:  res.Groups[1].MeanPerFlow(),
		QMean:  res.Sojourn.Mean(),
		QP99:   res.Sojourn.Percentile(99),
		Events: res.Events,
	}
	if pt.RateB > 0 {
		pt.Ratio = pt.RateA / pt.RateB
	}
	pt.Soj, _ = res.Sojourn.(*stats.LogHistogram)
	pt.ProbA = quantiles(res.ClassicProb)
	if res.ScalableProb.N() > 0 {
		pt.ProbB = quantiles(res.ScalableProb)
	} else {
		pt.ProbB = pt.ProbA
	}
	pt.Util = quantiles(res.UtilSeries)
	return pt
}

// quantiles summarizes a collector into the figures' P1/P25/mean/P99 shape.
func quantiles(s interface {
	Percentiles(qs ...float64) []float64
	Mean() float64
}) Quantiles {
	v := s.Percentiles(1, 25, 99)
	return Quantiles{P1: v[0], P25: v[1], Mean: s.Mean(), P99: v[2]}
}

// PrintFig15 writes the rate-balance table (Figure 15).
func PrintFig15(w io.Writer, pts []SweepPoint) {
	fmt.Fprintln(w, "# Figure 15: throughput balance, one flow per congestion control")
	fmt.Fprintln(w, "# ratio = Cubic / {DCTCP|ECN-Cubic}; 1.0 = perfect coexistence")
	if len(pts) > 0 && pts[0].Reps > 1 {
		fmt.Fprintf(w, "# %d reps per cell with perturbed seeds: cross-seed means, ± = 95%% CI\n", pts[0].Reps)
		fmt.Fprintln(w, "pair\taqm\tlink_mbps\trtt_ms\trate_cubic_mbps\trate_other_mbps\tratio\tratio_ci")
		for _, p := range pts {
			fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.3f\t%.3f\t%.3f\t±%.3f\n",
				p.Pair, p.AQM, p.LinkMbps, float64(p.RTT.Milliseconds()),
				p.RateA/1e6, p.RateB/1e6, p.Ratio, p.RatioHW)
		}
		return
	}
	fmt.Fprintln(w, "pair\taqm\tlink_mbps\trtt_ms\trate_cubic_mbps\trate_other_mbps\tratio")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.3f\t%.3f\t%.3f\n",
			p.Pair, p.AQM, p.LinkMbps, float64(p.RTT.Milliseconds()),
			p.RateA/1e6, p.RateB/1e6, p.Ratio)
	}
}

// PrintFig16 writes the queue-delay table (Figure 16).
func PrintFig16(w io.Writer, pts []SweepPoint) {
	fmt.Fprintln(w, "# Figure 16: queuing delay (mean, P99) per packet")
	if len(pts) > 0 && pts[0].Reps > 1 {
		fmt.Fprintf(w, "# %d reps per cell: pooled-sample quantiles, ± = 95%% CI over per-rep values\n", pts[0].Reps)
		fmt.Fprintln(w, "pair\taqm\tlink_mbps\trtt_ms\tqdelay_mean_ms\tqdelay_mean_ci\tqdelay_p99_ms\tqdelay_p99_ci")
		for _, p := range pts {
			fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.2f\t±%.2f\t%.2f\t±%.2f\n",
				p.Pair, p.AQM, p.LinkMbps, float64(p.RTT.Milliseconds()),
				p.QMean*1e3, p.QMeanHW*1e3, p.QP99*1e3, p.QP99HW*1e3)
		}
		return
	}
	fmt.Fprintln(w, "pair\taqm\tlink_mbps\trtt_ms\tqdelay_mean_ms\tqdelay_p99_ms")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.2f\t%.2f\n",
			p.Pair, p.AQM, p.LinkMbps, float64(p.RTT.Milliseconds()),
			p.QMean*1e3, p.QP99*1e3)
	}
}

// PrintFig17 writes the mark/drop-probability table (Figure 17).
func PrintFig17(w io.Writer, pts []SweepPoint) {
	fmt.Fprintln(w, "# Figure 17: marking/dropping probability (%), P25/mean/P99")
	fmt.Fprintln(w, "pair\taqm\tlink_mbps\trtt_ms\tclassic_p25\tclassic_mean\tclassic_p99\tscal_p25\tscal_mean\tscal_p99")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f\n",
			p.Pair, p.AQM, p.LinkMbps, float64(p.RTT.Milliseconds()),
			p.ProbA.P25*100, p.ProbA.Mean*100, p.ProbA.P99*100,
			p.ProbB.P25*100, p.ProbB.Mean*100, p.ProbB.P99*100)
	}
}

// PrintFig18 writes the utilization table (Figure 18).
func PrintFig18(w io.Writer, pts []SweepPoint) {
	fmt.Fprintln(w, "# Figure 18: link utilisation (%), P1/mean/P99 per 1 s interval")
	fmt.Fprintln(w, "pair\taqm\tlink_mbps\trtt_ms\tutil_p1\tutil_mean\tutil_p99")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%s\t%.0f\t%.0f\t%.1f\t%.1f\t%.1f\n",
			p.Pair, p.AQM, p.LinkMbps, float64(p.RTT.Milliseconds()),
			p.Util.P1*100, p.Util.Mean*100, p.Util.P99*100)
	}
}
