package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/fq"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/traffic"
)

// DualQResult compares the paper's single-queue coupled AQM against the
// DualPI2 dual-queue extension it points toward (Section 7): same traffic,
// same coupling — the dual queue removes the Classic queuing delay from the
// Scalable flow's path.
type DualQResult struct {
	// Single is the single-queue run; LDelay/CDelay there are the same
	// shared queue measured per traffic class.
	SingleRatio                float64
	SingleLDelayMs             Quantiles
	SingleCDelayMs             Quantiles
	SingleUtil                 float64
	DualRatio                  float64
	DualLDelayMs, DualCDelayMs Quantiles
	DualUtil                   float64
	// JainSingle/JainDual summarize rate fairness across all flows.
	JainSingle, JainDual float64
}

// dualArm holds one arrangement's metrics — the shared shape of the
// single-queue, dual-queue and FQ arms.
type dualArm struct {
	Ratio              float64
	Jain               float64
	LDelayMs, CDelayMs Quantiles
	Util               float64
}

// DualQ runs NA Cubic + NB DCTCP flows through (a) the single-queue coupled
// PI2 and (b) DualPI2, at 40 Mb/s and 10 ms RTT. Both arms share one seed
// (SeedIndex 0) so they see identical traffic randomness; they run as two
// engine tasks and so in parallel when o.Jobs > 1.
func DualQ(o campaign.Options, na, nb int) *DualQResult {
	recs := campaign.Execute(dualqTasks(o, na, nb), execFor(o, "dualq", gridSpec{NA: na, NB: nb}))
	res := &DualQResult{}
	if a, ok := recs[0].Result.(dualArm); ok {
		res.SingleRatio = a.Ratio
		res.SingleLDelayMs = a.LDelayMs
		res.SingleCDelayMs = a.CDelayMs
		res.SingleUtil = a.Util
		res.JainSingle = a.Jain
	}
	if a, ok := recs[1].Result.(dualArm); ok {
		res.DualRatio = a.Ratio
		res.DualLDelayMs = a.LDelayMs
		res.DualCDelayMs = a.CDelayMs
		res.DualUtil = a.Util
		res.JainDual = a.Jain
	}
	return res
}

// dualqTasks builds the paired single-queue/dual-queue arms.
func dualqTasks(o campaign.Options, na, nb int) []campaign.Task {
	return []campaign.Task{
		{
			Name: "dualq/single", SeedIndex: 0,
			Params: map[string]any{"na": na, "nb": nb},
			Run:    func(tc *campaign.TaskCtx) any { return dualQSingleArm(o, tc, na, nb) },
		},
		{
			Name: "dualq/dual", SeedIndex: 0,
			Params: map[string]any{"na": na, "nb": nb},
			Run:    func(tc *campaign.TaskCtx) any { return dualQDualArm(o, tc, na, nb) },
		},
	}
}

// dualQSingleArm is the single shared queue: per-class delay comes from the
// per-packet sample split by ECN — approximate with the shared-queue sample
// for both classes (that is the point: in a single queue they are identical).
func dualQSingleArm(o campaign.Options, tc *campaign.TaskCtx, na, nb int) dualArm {
	const (
		rate = 40e6
		rtt  = 10 * time.Millisecond
	)
	dur := o.Scale(100 * time.Second)
	sc := Scenario{
		Seed:        tc.Seed,
		Watch:       tc.Watch,
		LinkRateBps: rate,
		NewAQM:      PI2Factory(20 * time.Millisecond),
		Duration:    dur,
		WarmUp:      dur * 2 / 5,
	}
	sc.Bulk = append(sc.Bulk, bulkPair(na, nb, rtt)...)
	r := Run(sc)
	q := scaleQ(quantiles(r.Sojourn), 1e3)
	return dualArm{
		Ratio:    perFlowRatio(r),
		Jain:     jainOf(r),
		LDelayMs: q,
		CDelayMs: q,
		Util:     r.Utilization,
	}
}

// dualQDualArm is the DualPI2 arrangement, with per-queue sojourn collectors.
func dualQDualArm(o campaign.Options, tc *campaign.TaskCtx, na, nb int) dualArm {
	dur := o.Scale(100 * time.Second)
	cell := runDual(cellSpec{seed: tc.Seed, watch: tc.Watch, mix: bulkPair(na, nb, 10*time.Millisecond),
		warm: dur * 2 / 5, dur: dur}, 40e6, core.DualConfig{}, nil, nil)
	rates := cell.rates()
	arm := dualArm{
		Jain:     stats.JainIndex(rates),
		LDelayMs: scaleQ(quantiles(cell.dual.LSojourn), 1e3),
		CDelayMs: scaleQ(quantiles(cell.dual.CSojourn), 1e3),
		Util:     cell.dual.Utilization(),
	}
	arm.Ratio = classRatio(rates, na)
	return arm
}

// classRatio is the mean Classic rate (the first na flows of a bulkPair
// mix) over the mean Scalable rate; 0 when the Scalable side is empty or idle.
func classRatio(rates []float64, na int) float64 {
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	if d := mean(rates[na:]); d > 0 {
		return mean(rates[:na]) / d
	}
	return 0
}

func bulkPair(na, nb int, rtt time.Duration) []traffic.BulkFlowSpec {
	var out []traffic.BulkFlowSpec
	if na > 0 {
		out = append(out, traffic.BulkFlowSpec{CC: "cubic", Count: na, RTT: rtt, Label: "A"})
	}
	if nb > 0 {
		out = append(out, traffic.BulkFlowSpec{CC: "dctcp", Count: nb, RTT: rtt, Label: "B"})
	}
	return out
}

func perFlowRatio(r *Result) float64 {
	var a, b float64
	for _, g := range r.Groups {
		switch g.Label {
		case "A":
			a = g.MeanPerFlow()
		case "B":
			b = g.MeanPerFlow()
		}
	}
	if b == 0 {
		return 0
	}
	return a / b
}

func jainOf(r *Result) float64 {
	var rates []float64
	for _, g := range r.Groups {
		rates = append(rates, g.FlowRates...)
	}
	return stats.JainIndex(rates)
}

func scaleQ(q Quantiles, f float64) Quantiles {
	q.P1 *= f
	q.P25 *= f
	q.Mean *= f
	q.P99 *= f
	return q
}

// FQRow holds the FQ-CoDel arrangement's results for the same traffic.
type FQRow struct {
	Ratio   float64
	Jain    float64
	DelayMs Quantiles
	Util    float64
}

// FQArrangement runs the same NA Cubic + NB DCTCP traffic through an
// FQ-CoDel bottleneck — the per-flow-queuing alternative the paper's
// introduction weighs against single-queue designs. Isolation gives both
// flows their fair share with low delay, at the cost of per-flow state
// and transport-header inspection in the network. It runs as one engine
// task with SeedIndex 0, so it sees the same traffic seed as DualQ's arms.
func FQArrangement(o campaign.Options, na, nb int) FQRow {
	recs := campaign.Execute(fqTasks(o, na, nb), execFor(o, "dualq-fq", gridSpec{NA: na, NB: nb}))
	row, _ := recs[0].Result.(FQRow)
	return row
}

// fqTasks builds the FQ-CoDel arrangement's single-cell matrix.
func fqTasks(o campaign.Options, na, nb int) []campaign.Task {
	return []campaign.Task{{
		Name: "dualq/fq-codel", SeedIndex: 0,
		Params: map[string]any{"na": na, "nb": nb},
		Run:    func(tc *campaign.TaskCtx) any { return fqArrangementArm(o, tc, na, nb) },
	}}
}

func fqArrangementArm(o campaign.Options, tc *campaign.TaskCtx, na, nb int) FQRow {
	dur := o.Scale(100 * time.Second)
	var l *fq.Link
	cell := runWired(cellSpec{seed: tc.Seed, watch: tc.Watch, mix: bulkPair(na, nb, 10*time.Millisecond),
		warm: dur * 2 / 5, dur: dur}, func(s *sim.Simulator, deliver func(*packet.Packet)) (*link.Link, func()) {
		l = fq.New(s, fq.Config{RateBps: 40e6}, deliver)
		return l.Link, l.Sojourn.Reset
	})
	rates := cell.rates()
	row := FQRow{
		Jain:    stats.JainIndex(rates),
		DelayMs: scaleQ(quantiles(l.Sojourn), 1e3),
		Util:    l.Utilization(),
	}
	row.Ratio = classRatio(rates, na)
	return row
}

// PrintArrangements writes the three-way comparison: coupled single queue,
// DualPI2 dual queue, and FQ-CoDel per-flow queues.
func PrintArrangements(w io.Writer, dq *DualQResult, fqr FQRow) {
	fmt.Fprintln(w, "# Queue arrangements under 1 Cubic + 1 DCTCP (40 Mb/s, RTT 10 ms)")
	fmt.Fprintln(w, "arrangement\tratio\tjain\tscalable_delay_ms\tclassic_delay_ms\tutil\tnetwork-needs")
	fmt.Fprintf(w, "single-pi2\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tECN classifier only\n",
		dq.SingleRatio, dq.JainSingle, dq.SingleLDelayMs.Mean, dq.SingleCDelayMs.Mean, dq.SingleUtil)
	fmt.Fprintf(w, "dualpi2\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tECN classifier + 2 queues\n",
		dq.DualRatio, dq.JainDual, dq.DualLDelayMs.Mean, dq.DualCDelayMs.Mean, dq.DualUtil)
	fmt.Fprintf(w, "fq-codel\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tper-flow state + 5-tuple inspection\n",
		fqr.Ratio, fqr.Jain, fqr.DelayMs.Mean, fqr.DelayMs.Mean, fqr.Util)
}

// Print writes the comparison table.
func (r *DualQResult) Print(w io.Writer) {
	fmt.Fprintln(w, "# DualPI2 extension: single coupled queue vs dual queue (40 Mb/s, RTT 10 ms)")
	fmt.Fprintln(w, "arrangement\tratio\tjain\tL_mean_ms\tL_p99_ms\tC_mean_ms\tC_p99_ms\tutil")
	fmt.Fprintf(w, "single-queue\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
		r.SingleRatio, r.JainSingle,
		r.SingleLDelayMs.Mean, r.SingleLDelayMs.P99,
		r.SingleCDelayMs.Mean, r.SingleCDelayMs.P99, r.SingleUtil)
	fmt.Fprintf(w, "dualpi2\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
		r.DualRatio, r.JainDual,
		r.DualLDelayMs.Mean, r.DualLDelayMs.P99,
		r.DualCDelayMs.Mean, r.DualCDelayMs.P99, r.DualUtil)
	fmt.Fprintln(w, "# the dual queue holds Scalable (L) delay near zero while the Classic (C)")
	fmt.Fprintln(w, "# queue keeps its 20 ms target — the step the paper's conclusion points to")
}
