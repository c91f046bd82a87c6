package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/stats"
	"pi2/internal/traffic"
)

// The interop family is the L4S conformance tier: every congestion control
// crossed with every ECN-feedback negotiation outcome, through each AQM —
// including deliberately broken combinations (a Classic control negotiating
// accurate ECN sends ECT(1) but ignores per-ACK CE, the sender RFC 9331
// forbids). Each cell runs two flows of the control under test against two
// loss-based Cubic reference flows at equal RTT and reports how capacity,
// marks, drops and queue delay split between them. The headline invariant is
// the Prague/Cubic rate ratio through DualPI2: the coupling is designed to
// make it ~1 at equal RTT.
const (
	interopLinkBps = 40e6
	interopRTT     = 10 * time.Millisecond
	// interopBuffer bounds the queue for the non-conformant arms: an
	// ECT(1) sender that ignores CE only backs off at overflow, so the
	// buffer (not the AQM) is what limits its standing queue. 2500 full
	// packets ≈ 750 ms at 40 Mb/s — enough to make the failure mode
	// visible in q_p99 without letting the queue grow unboundedly.
	interopBuffer = 2500
)

// InteropCCs is the congestion-control axis of the conformance matrix.
var InteropCCs = []string{"prague", "dctcp", "cubic", "reno"}

// InteropFeedbacks is the ECN-negotiation axis (see tcp.NewCCFeedback).
var InteropFeedbacks = []string{"classic", "accurate"}

// InteropAQMs are the disciplines each (cc, feedback) arm traverses.
var InteropAQMs = []string{"pie", "pi2", "dualpi2"}

// InteropPoint is one cell of the conformance matrix: one control under one
// negotiated feedback mode through one AQM, sharing the bottleneck with the
// Cubic reference flows.
type InteropPoint struct {
	CC       string
	Feedback string
	AQM      string

	// TestShare is the test group's fraction of total TCP goodput
	// (0.5 = perfect sharing with the reference group).
	TestShare float64
	// RateRatio is test-group goodput over reference-group goodput
	// (groups have equal flow counts, so this is also the per-flow ratio).
	RateRatio float64
	// Marks and Drops are whole-run bottleneck totals.
	Marks, Drops int
	// QMeanMs / QP99Ms summarize per-packet queuing delay.
	QMeanMs, QP99Ms float64
	// Util is the bottleneck's busy fraction; Jain is fairness over all
	// four flows.
	Util, Jain float64

	Events uint64
}

// EventCount satisfies campaign.EventCounter for per-run events/sec records.
func (p InteropPoint) EventCount() uint64 { return p.Events }

// Metrics implements campaign.MetricsReporter — the fingerprint the golden
// harness tracks for each conformance cell.
func (p InteropPoint) Metrics() map[string]float64 {
	return map[string]float64{
		"test_share":  p.TestShare,
		"rate_ratio":  p.RateRatio,
		"marks":       float64(p.Marks),
		"drops_total": float64(p.Drops),
		"q_mean_ms":   p.QMeanMs,
		"q_p99_ms":    p.QP99Ms,
		"util":        p.Util,
		"jain":        p.Jain,
		"events":      float64(p.Events),
	}
}

// Interop runs the conformance matrix: every cc × feedback × AQM cell across
// o.Jobs workers. The three AQM arms of one (cc, feedback) pair share a seed
// index so the comparison across disciplines is paired. Cells always run on
// the classic single-simulator path (never sharded): conformance
// fingerprints are byte-stable across every harness parallelism knob, which
// the determinism tests pin (-jobs and -shards must not move a single bit).
func Interop(o campaign.Options) ([]InteropPoint, []string, error) {
	tasks := interopTasks(o)
	out := make([]InteropPoint, len(tasks))
	bad := make([]bool, len(tasks))
	// Records fold by index as they stream in; failures are listed in
	// matrix order afterwards (deterministic under any completion order).
	campaign.ExecuteStream(tasks, execFor(o, "interop", gridSpec{}), func(rec campaign.RunRecord) {
		cc, _ := rec.Params["cc"].(string)
		fb, _ := rec.Params["fb"].(string)
		aqmName, _ := rec.Params["aqm"].(string)
		p, ok := rec.Result.(InteropPoint)
		if rec.Err != "" || !ok {
			bad[rec.Index] = true
			out[rec.Index] = InteropPoint{CC: cc, Feedback: fb, AQM: aqmName}
			return
		}
		out[rec.Index] = p
	})
	var failed []string
	for i, b := range bad {
		if b {
			failed = append(failed, fmt.Sprintf("%s/%s/%s", out[i].CC, out[i].Feedback, out[i].AQM))
		}
	}
	if len(failed) > 0 {
		return out, failed, errors.New("interop cells failed: " + fmt.Sprint(failed))
	}
	return out, nil, nil
}

// interopTasks builds the cc × feedback × AQM matrix; the AQM arms of one
// (cc, feedback) pair share a seed index.
func interopTasks(o campaign.Options) []campaign.Task {
	var tasks []campaign.Task
	for ci, cc := range InteropCCs {
		for fi, fb := range InteropFeedbacks {
			for _, aqmName := range InteropAQMs {
				cc, fb, aqmName := cc, fb, aqmName
				tasks = append(tasks, campaign.Task{
					Name:      "interop",
					SeedIndex: ci*len(InteropFeedbacks) + fi, // paired across AQMs
					Params:    map[string]any{"cc": cc, "fb": fb, "aqm": aqmName},
					Run: func(tc *campaign.TaskCtx) any {
						return InteropCell(o, tc.Seed, tc.Watch, cc, fb, aqmName)
					},
				})
			}
		}
	}
	return tasks
}

func interopDuration(o campaign.Options) time.Duration {
	return o.Scale(60 * time.Second)
}

// InteropCell runs one conformance cell: two flows of cc under the given
// feedback arm vs two loss-based Cubic reference flows at equal RTT. It is
// exported so the fairness-invariant tests can run a single cell (at a
// longer horizon) without paying for the whole matrix.
func InteropCell(o campaign.Options, seed int64, watch func(campaign.Canceler), cc, fb, aqmName string) InteropPoint {
	if aqmName == "dualpi2" {
		return runInteropDual(o, seed, watch, cc, fb)
	}
	target := o.TargetDelay()
	factory, ok := FactoryByName(aqmName, target)
	if !ok {
		panic("unknown AQM " + aqmName)
	}
	dur := interopDuration(o)
	sc := Scenario{
		Seed:          seed,
		Watch:         watch,
		LinkRateBps:   interopLinkBps,
		BufferPackets: interopBuffer,
		NewAQM:        factory,
		// Shards deliberately unset: see Interop.
		Bulk: []traffic.BulkFlowSpec{
			{CC: cc, Feedback: fb, Count: 2, RTT: interopRTT, Label: "test"},
			{CC: "cubic", Count: 2, RTT: interopRTT, Label: "ref"},
		},
		Duration: dur,
		WarmUp:   dur / 4,
	}
	r := Run(sc)
	test, ref := r.Groups[0], r.Groups[1]
	p := InteropPoint{
		CC:       cc,
		Feedback: fb,
		AQM:      aqmName,
		Marks:    r.Marks,
		Drops:    r.DropsAQM + r.DropsOverflow,
		QMeanMs:  r.Sojourn.Mean() * 1e3,
		QP99Ms:   r.Sojourn.Percentile(99) * 1e3,
		Util:     r.Utilization,
		Jain:     jainOf(r),
		Events:   r.Events,
	}
	if tot := test.Total() + ref.Total(); tot > 0 {
		p.TestShare = test.Total() / tot
	}
	if ref.Total() > 0 {
		p.RateRatio = test.Total() / ref.Total()
	}
	return p
}

// runInteropDual is the DualPI2 cell. Marks and drops count from the warm-up
// boundary, as the scenario runner's do: the paired pi2/dualpi2 columns
// must cover the same measurement window.
func runInteropDual(o campaign.Options, seed int64, watch func(campaign.Canceler), cc, fb string) InteropPoint {
	dur := interopDuration(o)
	soj := newQuantiler()
	cell := runDual(cellSpec{seed: seed, watch: watch, warm: dur / 4, dur: dur,
		mix: []traffic.BulkFlowSpec{
			{CC: cc, Feedback: fb, Count: 2, RTT: interopRTT},
			{CC: "cubic", Count: 2, RTT: interopRTT},
		}}, interopLinkBps, core.DualConfig{
		Config:        core.Config{Target: o.TargetDelay()},
		BufferPackets: interopBuffer,
		LSojourn:      soj,
		CSojourn:      soj,
	}, nil)
	rates := cell.rates()
	testTot, refTot := rates[0]+rates[1], rates[2]+rates[3]
	p := InteropPoint{
		CC:       cc,
		Feedback: fb,
		AQM:      "dualpi2",
		Marks:    cell.dual.Link.Marks(),
		Drops:    cell.dual.TotalDrops(),
		QMeanMs:  soj.Mean() * 1e3,
		QP99Ms:   soj.Percentile(99) * 1e3,
		Util:     cell.dual.Utilization(),
		Jain:     stats.JainIndex(rates),
		Events:   cell.s.Processed(),
	}
	if tot := testTot + refTot; tot > 0 {
		p.TestShare = testTot / tot
	}
	if refTot > 0 {
		p.RateRatio = testTot / refTot
	}
	return p
}

// PrintInterop writes the conformance table. Failed cells (named in failed)
// render as FAILED rows so a partially-degraded matrix still reports every
// cell it completed.
func PrintInterop(w io.Writer, pts []InteropPoint, failed []string) {
	fmt.Fprintln(w, "# Interop tier: 2 flows under test + 2 cubic (loss-based) refs, 40 Mb/s, RTT 10 ms")
	fmt.Fprintln(w, "# feedback arms: classic = RFC 3168 ECE/CWR on ECT(0); accurate = per-ACK CE on ECT(1)")
	fmt.Fprintln(w, "# (cubic/reno + accurate is the deliberately NON-CONFORMANT ECT(1)-but-ignores-CE sender)")
	fmt.Fprintln(w, "cc\tfeedback\taqm\ttest_share\trate_ratio\tmarks\tdrops\tq_mean_ms\tq_p99_ms\tutil\tjain")
	bad := make(map[string]bool, len(failed))
	for _, f := range failed {
		bad[f] = true
	}
	for _, p := range pts {
		if bad[p.CC+"/"+p.Feedback+"/"+p.AQM] {
			fmt.Fprintf(w, "%s\t%s\t%s\tFAILED\tFAILED\tFAILED\tFAILED\tFAILED\tFAILED\tFAILED\tFAILED\n",
				p.CC, p.Feedback, p.AQM)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%.3f\t%.3f\t%d\t%d\t%.2f\t%.2f\t%.3f\t%.3f\n",
			p.CC, p.Feedback, p.AQM, p.TestShare, p.RateRatio, p.Marks, p.Drops,
			p.QMeanMs, p.QP99Ms, p.Util, p.Jain)
	}
}
