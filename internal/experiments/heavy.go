package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/packet"
	"pi2/internal/stats"
	"pi2/internal/traffic"
)

// The heavy tier stresses flow-count scaling rather than the paper's grid:
// the per-flow regime is held constant (fair share and RTT fixed) while the
// flow population grows by orders of magnitude, so the sweep isolates how
// the AQMs — and the simulator itself — behave as state scales. Like every
// cell, they collect into constant-memory histograms, so metrics memory
// does not grow with the flow count or the run length.
const (
	heavyPerFlowBps = 2e6
	heavyRTT        = 10 * time.Millisecond
)

// HeavyFlowCounts is the flow-count axis of the heavy scaling tier.
var HeavyFlowCounts = []int{10, 100, 1000, 5000}

// HeavyFFFlowCounts extends the axis under -ff: flow populations whose
// steady state is only tractable with the fast-forward engine. They run on
// the single-queue AQMs only — DualPI2's coupled dual queue stays in packet
// mode (see internal/ff), so those cells would be pure packet slog.
var HeavyFFFlowCounts = []int{10000, 50000}

// HeavyAQMs are the bottleneck disciplines compared at each flow count.
var HeavyAQMs = []string{"pie", "pi2", "dualpi2"}

// HeavyPoint is one cell of the flow-count scaling sweep: N flows (even
// reno/cubic/dctcp thirds) through one AQM at a link sized to keep the fair
// share at heavyPerFlowBps.
type HeavyPoint struct {
	Flows int
	AQM   string

	// Jain is Jain's fairness index over all per-flow rates.
	Jain float64
	// QMeanMs / QP99Ms summarize per-packet queuing delay (histogram).
	QMeanMs, QP99Ms float64
	// Util is the bottleneck's busy fraction.
	Util float64

	// Simulator-throughput metrics for the scaling story. Events counts
	// packet-mode simulator events only; fast-forwarded virtual traffic is
	// reported separately so event throughput and wall speedup stay
	// distinguishable.
	Events       uint64
	WallMs       float64
	EventsPerSec float64
	// SimSecPerWallSec is simulated seconds per wall-clock second.
	SimSecPerWallSec float64
	// FFEpochs / FFVirtualPkts / FFTimeS are the fast-forward engine's
	// telemetry (all zero without -ff): committed epochs, virtual packets
	// decided analytically, and simulated seconds skipped.
	FFEpochs      int
	FFVirtualPkts uint64
	FFTimeS       float64

	// Reps > 1 marks a cross-seed aggregate: the cell ran Reps times with
	// perturbed seeds, the point estimates above are cross-seed means (with
	// sojourn quantiles from the reps' pooled histograms), each *HW is the
	// 95% confidence half-width (1.96·s/√n), and RateCoV is the pooled
	// per-flow-rate coefficient of variation. Reps <= 1 is a single run
	// with all of these zero.
	Reps                            int
	JainHW, QMeanHW, QP99HW, UtilHW float64
	RateCoV                         float64

	// Soj and RateW are this rep's sojourn histogram and per-flow-rate
	// moments (pooled across reps via Merge). Exported so they survive the
	// fleet wire (gob drops unexported fields); excluded from -json, which
	// never carried them.
	Soj   *stats.LogHistogram `json:"-"`
	RateW stats.Welford       `json:"-"`
}

// EventCount satisfies campaign.EventCounter for per-run events/sec records.
func (p HeavyPoint) EventCount() uint64 { return p.Events }

// Metrics implements campaign.MetricsReporter for one heavy cell. Wall-time
// metrics (WallMs, EventsPerSec, SimSecPerWallSec) are reported in the
// printed table only: they depend on the host, not the simulation.
func (p HeavyPoint) Metrics() map[string]float64 {
	return map[string]float64{
		"flows":     float64(p.Flows),
		"jain":      p.Jain,
		"q_mean_ms": p.QMeanMs,
		"q_p99_ms":  p.QP99Ms,
		"util":      p.Util,
		"events":    float64(p.Events),
	}
}

// heavyMix splits n flows into near-even reno/cubic/dctcp thirds.
func heavyMix(n int) (reno, cubic, dctcp int) {
	reno = n / 3
	cubic = n / 3
	dctcp = n - reno - cubic
	return
}

// heavyTasks builds the AQM × flow-count (× rep) matrix. The rep loop is
// innermost with SeedIndex = len(tasks), so at reps=1 the cell→seed
// mapping is exactly the historical one and the table stays byte-identical.
func heavyTasks(o campaign.Options) []campaign.Task {
	counts := HeavyFlowCounts
	if o.Quick {
		counts = []int{10, 100}
	}
	reps := o.RepCount()
	var tasks []campaign.Task
	for _, aqmName := range HeavyAQMs {
		cs := counts
		if o.FF && !o.Quick && aqmName != "dualpi2" {
			cs = append(append([]int{}, counts...), HeavyFFFlowCounts...)
		}
		for _, n := range cs {
			for rep := 0; rep < reps; rep++ {
				aqmName, n := aqmName, n
				tasks = append(tasks, campaign.Task{
					Name:      "heavy",
					SeedIndex: len(tasks),
					Params:    map[string]any{"aqm": aqmName, "flows": n, "rep": rep},
					Run: func(tc *campaign.TaskCtx) any {
						if aqmName == "dualpi2" {
							return runHeavyDual(o, tc, n)
						}
						return runHeavyCell(o, tc, n, aqmName)
					},
				})
			}
		}
	}
	return tasks
}

// Heavy runs the flow-count scaling sweep: each count in HeavyFlowCounts
// through PIE, PI2 and DualPI2. Cells fan out across o.Jobs workers (or a
// worker-process fleet); a non-nil error names every failed cell (so a CI
// smoke run exits nonzero) while the returned points still cover the cells
// that completed. Records stream: each cell's reps aggregate the moment
// the group completes — full RunRecords are dropped on the spot, so peak
// memory holds one aggregated point per group plus the in-flight window,
// not the whole grid.
func Heavy(o campaign.Options) ([]HeavyPoint, error) {
	tasks := heavyTasks(o)
	reps := o.RepCount()
	nGroups := len(tasks) / reps
	type heavyGroup struct {
		ok bool
		pt HeavyPoint
	}
	groups := make([]heavyGroup, nGroups)
	groupFails := make([][]string, nGroups)
	groupFold(tasks, execFor(o, "heavy", gridSpec{}), reps, func(group int, recs []campaign.RunRecord) {
		var pts []HeavyPoint
		var wallMs float64
		var events uint64
		for _, rec := range recs {
			if rec.Err != "" {
				groupFails[group] = append(groupFails[group], fmt.Sprintf("%s/%v flows=%v rep=%v: %s",
					rec.Name, rec.Params["aqm"], rec.Params["flows"], rec.Params["rep"], rec.Err))
				continue
			}
			p, ok := rec.Result.(HeavyPoint)
			if !ok {
				groupFails[group] = append(groupFails[group], fmt.Sprintf("%s/%v flows=%v rep=%v: no result",
					rec.Name, rec.Params["aqm"], rec.Params["flows"], rec.Params["rep"]))
				continue
			}
			wallMs += rec.WallMs
			events += p.Events
			pts = append(pts, p)
		}
		if len(pts) == 0 {
			return
		}
		p := aggregateHeavy(pts)
		p.WallMs = wallMs
		if wallMs > 0 {
			p.EventsPerSec = float64(events) / (wallMs / 1e3)
			p.SimSecPerWallSec = heavyDuration(o).Seconds() * float64(len(pts)) / (wallMs / 1e3)
		}
		groups[group] = heavyGroup{ok: true, pt: p}
	})
	// Assemble in matrix order regardless of completion order.
	var out []HeavyPoint
	var failed []string
	for g := range groups {
		if groups[g].ok {
			out = append(out, groups[g].pt)
		}
		failed = append(failed, groupFails[g]...)
	}
	if len(failed) > 0 {
		return out, errors.New("heavy cells failed: " + fmt.Sprint(failed))
	}
	return out, nil
}

// aggregateHeavy folds one cell's repetitions into a banded point: scalar
// metrics via per-rep Welford accumulators (cross-seed mean ± 95% CI),
// sojourn quantiles via LogHistogram.Merge over the reps' pooled histograms,
// and per-flow-rate spread via Welford.Merge of the per-rep accumulators.
// One rep passes through untouched, keeping single-run tables byte-stable.
func aggregateHeavy(pts []HeavyPoint) HeavyPoint {
	if len(pts) == 1 {
		return pts[0]
	}
	agg := pts[0]
	var jain, qmean, qp99, util stats.Welford
	pooled := stats.NewDelayHistogram()
	var rates stats.Welford
	var events, ffPkts uint64
	var ffEpochs int
	var ffTime float64
	for _, p := range pts {
		jain.Add(p.Jain)
		ffEpochs += p.FFEpochs
		ffPkts += p.FFVirtualPkts
		ffTime += p.FFTimeS
		qmean.Add(p.QMeanMs)
		qp99.Add(p.QP99Ms)
		util.Add(p.Util)
		if p.Soj != nil {
			pooled.Merge(p.Soj)
		}
		rates.Merge(p.RateW)
		events += p.Events
	}
	agg.Reps = len(pts)
	agg.Jain, agg.JainHW = jain.Mean(), ci95(jain)
	agg.Util, agg.UtilHW = util.Mean(), ci95(util)
	agg.QMeanHW, agg.QP99HW = ci95(qmean), ci95(qp99)
	if pooled.N() > 0 {
		agg.QMeanMs = pooled.Mean() * 1e3
		agg.QP99Ms = pooled.Percentile(99) * 1e3
	} else {
		agg.QMeanMs, agg.QP99Ms = qmean.Mean(), qp99.Mean()
	}
	if m := rates.Mean(); m > 0 {
		agg.RateCoV = rates.Stddev() / m
	}
	agg.Events = events / uint64(len(pts))
	agg.FFEpochs = ffEpochs / len(pts)
	agg.FFVirtualPkts = ffPkts / uint64(len(pts))
	agg.FFTimeS = ffTime / float64(len(pts))
	agg.Soj, agg.RateW = pooled, rates
	return agg
}

// ci95 is the normal-approximation 95% confidence half-width of the mean.
func ci95(w stats.Welford) float64 {
	if w.N() < 2 {
		return 0
	}
	return 1.96 * w.Stddev() / math.Sqrt(float64(w.N()))
}

func heavyDuration(o campaign.Options) time.Duration {
	return o.Scale(20 * time.Second)
}

// runHeavyCell is a single-queue cell (PIE or PI2) through the standard
// scenario runner with compact collectors.
func runHeavyCell(o campaign.Options, tc *campaign.TaskCtx, n int, aqmName string) HeavyPoint {
	target := o.TargetDelay()
	factory, ok := FactoryByName(aqmName, target)
	if !ok {
		panic("unknown AQM " + aqmName)
	}
	dur := heavyDuration(o)
	reno, cubic, dctcp := heavyMix(n)
	rate := heavyPerFlowBps * float64(n)
	// The fast-forward extension cells (10k/50k flows) outgrow the Table 1
	// buffer: 40000 packets is under 5 ms of queue at 100 Gb/s, below the
	// AQM operating point, so the queue could never park near target. Those
	// cells get a 100 ms buffer instead; the standard axis keeps the paper
	// default (and its golden fingerprints).
	buf := 0
	for _, ffn := range HeavyFFFlowCounts {
		if n == ffn {
			if b := int(rate * 0.1 / 8 / packet.FullLen); b > 40000 {
				buf = b
			}
		}
	}
	sc := Scenario{
		Seed:          tc.Seed,
		Watch:         tc.Watch,
		Shards:        tc.Shards,
		FastForward:   o.FF,
		LinkRateBps:   rate,
		BufferPackets: buf,
		NewAQM:        factory,
		Bulk: []traffic.BulkFlowSpec{
			{CC: "reno", Count: reno, RTT: heavyRTT, Label: "reno"},
			{CC: "cubic", Count: cubic, RTT: heavyRTT, Label: "cubic"},
			{CC: "dctcp", Count: dctcp, RTT: heavyRTT, Label: "dctcp"},
		},
		Duration: dur,
		WarmUp:   dur * 2 / 5,
	}
	r := Run(sc)
	p := HeavyPoint{
		Flows:         n,
		AQM:           aqmName,
		Jain:          jainOf(r),
		QMeanMs:       r.Sojourn.Mean() * 1e3,
		QP99Ms:        r.Sojourn.Percentile(99) * 1e3,
		Util:          r.Utilization,
		Events:        r.Events,
		FFEpochs:      r.FFEpochs,
		FFVirtualPkts: r.FFVirtualPkts,
		FFTimeS:       r.FFTime.Seconds(),
	}
	p.Soj, _ = r.Sojourn.(*stats.LogHistogram)
	for _, g := range r.Groups {
		for _, rate := range g.FlowRates {
			p.RateW.Add(rate)
		}
	}
	return p
}

// runHeavyDual is the DualPI2 cell (the scenario runner drives single-queue
// links only), with both per-queue sojourn collectors pointed at one shared
// histogram so the cell reports a combined queue-delay distribution.
func runHeavyDual(o campaign.Options, tc *campaign.TaskCtx, n int) HeavyPoint {
	dur := heavyDuration(o)
	reno, cubic, dctcp := heavyMix(n)
	soj := newQuantiler()
	cell := runDual(cellSpec{seed: tc.Seed, watch: tc.Watch, warm: dur * 2 / 5, dur: dur,
		mix: []traffic.BulkFlowSpec{
			{CC: "reno", Count: reno, RTT: heavyRTT},
			{CC: "cubic", Count: cubic, RTT: heavyRTT},
			{CC: "dctcp", Count: dctcp, RTT: heavyRTT},
		}}, heavyPerFlowBps*float64(n), core.DualConfig{LSojourn: soj, CSojourn: soj}, nil)
	rates := cell.rates()
	p := HeavyPoint{
		Flows:   n,
		AQM:     "dualpi2",
		Jain:    stats.JainIndex(rates),
		QMeanMs: soj.Mean() * 1e3,
		QP99Ms:  soj.Percentile(99) * 1e3,
		Util:    cell.dual.Utilization(),
		Events:  cell.s.Processed(),
	}
	p.Soj, _ = soj.(*stats.LogHistogram)
	for _, r := range rates {
		p.RateW.Add(r)
	}
	return p
}

// PrintHeavy writes the scaling table. Only simulation-derived columns
// appear here: experiment stdout must stay byte-identical for any -jobs
// value, so host-dependent wall-clock figures go to PrintHeavyPerf instead.
func PrintHeavy(w io.Writer, pts []HeavyPoint) {
	fmt.Fprintln(w, "# Heavy tier: flow-count scaling, even reno/cubic/dctcp mix,")
	fmt.Fprintf(w, "# fair share %.0f Mb/s per flow, RTT %d ms; compact (histogram) collectors\n",
		heavyPerFlowBps/1e6, heavyRTT.Milliseconds())
	if len(pts) > 0 && pts[0].Reps > 1 {
		fmt.Fprintf(w, "# %d reps per cell with perturbed seeds: cross-seed mean, ± = 95%% CI,\n", pts[0].Reps)
		fmt.Fprintln(w, "# sojourn quantiles over the reps' pooled histograms, rate_cov = pooled per-flow-rate CoV")
		fmt.Fprintln(w, "aqm\tflows\tjain\tjain_ci\tq_mean_ms\tq_mean_ci\tq_p99_ms\tq_p99_ci\tutil\tutil_ci\trate_cov\tevents")
		for _, p := range pts {
			fmt.Fprintf(w, "%s\t%d\t%.3f\t±%.3f\t%.2f\t±%.2f\t%.2f\t±%.2f\t%.3f\t±%.3f\t%.3f\t%d\n",
				p.AQM, p.Flows, p.Jain, p.JainHW, p.QMeanMs, p.QMeanHW,
				p.QP99Ms, p.QP99HW, p.Util, p.UtilHW, p.RateCoV, p.Events)
		}
		return
	}
	fmt.Fprintln(w, "aqm\tflows\tjain\tq_mean_ms\tq_p99_ms\tutil\tevents")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%.3f\t%.2f\t%.2f\t%.3f\t%d\n",
			p.AQM, p.Flows, p.Jain, p.QMeanMs, p.QP99Ms, p.Util, p.Events)
	}
}

// PrintHeavyPerf writes the simulator-throughput block (per-cell wall time
// and events/sec) plus a process-heap footer from runtime.ReadMemStats.
// These depend on the host and GC timing, not the simulation, so they are
// kept off experiment stdout (the registry sends them to stderr) and out of
// Metrics(). Event throughput and wall speedup are separate columns on
// purpose: pkt_events_per_sec is real packet-mode event processing only,
// while sim_s_per_wall_s is the end-to-end speedup — under -ff the two
// diverge, and the ff_* columns say how much simulated time was covered
// analytically instead.
func PrintHeavyPerf(w io.Writer, pts []HeavyPoint) {
	fmt.Fprintln(w, "# simulator throughput (host-dependent, informational)")
	fmt.Fprintln(w, "aqm\tflows\twall_s\tpkt_events_per_sec\tsim_s_per_wall_s\tff_epochs\tff_sim_s\tff_virtual_pkts")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%d\t%.2f\t%.3g\t%.3g\t%d\t%.1f\t%d\n",
			p.AQM, p.Flows, p.WallMs/1e3, p.EventsPerSec, p.SimSecPerWallSec,
			p.FFEpochs, p.FFTimeS, p.FFVirtualPkts)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# heap: alloc=%.1f MiB sys=%.1f MiB (process-wide)\n",
		float64(ms.HeapAlloc)/(1<<20), float64(ms.Sys)/(1<<20))
}
