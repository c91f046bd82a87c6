package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
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
	// Single is the single-queue run; LDelayMs/CDelayMs there are the same
	// shared queue measured per traffic class.
	Single, Dual dualArm
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
func DualQ(o campaign.Options, na, nb int) (*DualQResult, error) {
	arms, err := grid(dualqTasks(o, na, nb), execFor(o, "dualq", gridSpec{NA: na, NB: nb}), 1, cell[dualArm])
	return &DualQResult{Single: arms[0], Dual: arms[1]}, err
}

// dualqTasks builds the paired single-queue/dual-queue arms.
func dualqTasks(o campaign.Options, na, nb int) []campaign.Task {
	return []campaign.Task{
		{
			Name: "dualq/single", SeedIndex: 0,
			Params: map[string]any{"na": na, "nb": nb},
			Run:    func(tc *campaign.TaskCtx) any { return dualQArm(o, tc, na, nb, "pi2") },
		},
		{
			Name: "dualq/dual", SeedIndex: 0,
			Params: map[string]any{"na": na, "nb": nb},
			Run:    func(tc *campaign.TaskCtx) any { return dualQArm(o, tc, na, nb, "dualpi2") },
		},
	}
}

// dualQArm runs na Cubic + nb DCTCP flows at 40 Mb/s and 10 ms RTT through
// one queue arrangement (see setArrangement). DualPI2 reports its L and C
// queues' delays apart; the other two have one delay for both classes (that
// is the point: in a shared queue they are identical).
func dualQArm(o campaign.Options, tc *campaign.TaskCtx, na, nb int, arrangement string) dualArm {
	dur := o.Scale(100 * time.Second)
	sc := Scenario{
		Seed:        tc.Seed,
		Watch:       tc.Watch,
		LinkRateBps: 40e6,
		Bulk:        bulkPair(na, nb, 10*time.Millisecond),
		Duration:    dur,
		WarmUp:      dur * 2 / 5,
	}
	lSoj := sc.setArrangement(arrangement)
	r := Run(sc)
	c := scaleQ(quantiles(r.Sojourn), 1e3)
	l := c
	if lSoj != nil {
		l = scaleQ(quantiles(lSoj), 1e3)
	}
	return dualArm{
		Ratio:    perFlowRatio(r),
		Jain:     jainOf(r),
		LDelayMs: l,
		CDelayMs: c,
		Util:     r.Utilization,
	}
}

// setArrangement sets the scenario's bottleneck to one of the queue
// arrangements the dualq and arrangements tables compare: the single coupled
// PI2 queue ("pi2"), DualPI2 ("dualpi2") or FQ-CoDel ("fq-codel"), each at
// its default 20 ms or 5 ms target. For DualPI2 it returns the L queue's
// sojourn collector; the C queue's is the run's Result.Sojourn.
func (sc *Scenario) setArrangement(name string) (lSojourn stats.Quantiler) {
	switch name {
	case "pi2":
		sc.setBottleneck("pi2", 20*time.Millisecond)
	case "dualpi2":
		lSojourn = newQuantiler()
		sc.Bottleneck = dualPI2(20*time.Millisecond, lSojourn)
	case "fq-codel":
		sc.Bottleneck = func(s *sim.Simulator, cfg link.Config, deliver func(*packet.Packet)) (*link.Link, func()) {
			l := fq.New(s, fq.Config{RateBps: cfg.RateBps, BufferPackets: cfg.BufferPackets}, deliver)
			l.Sojourn = cfg.Sojourn
			return l.Link, l.ResetStats
		}
	default:
		panic("unknown arrangement " + name)
	}
	return lSojourn
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
func FQArrangement(o campaign.Options, na, nb int) (FQRow, error) {
	rows, err := grid(fqTasks(o, na, nb), execFor(o, "dualq-fq", gridSpec{NA: na, NB: nb}), 1, cell[FQRow])
	return rows[0], err
}

// fqTasks builds the FQ-CoDel arrangement's single-cell matrix.
func fqTasks(o campaign.Options, na, nb int) []campaign.Task {
	return []campaign.Task{{
		Name: "dualq/fq-codel", SeedIndex: 0,
		Params: map[string]any{"na": na, "nb": nb},
		Run: func(tc *campaign.TaskCtx) any {
			a := dualQArm(o, tc, na, nb, "fq-codel")
			return FQRow{Ratio: a.Ratio, Jain: a.Jain, DelayMs: a.CDelayMs, Util: a.Util}
		},
	}}
}

// PrintArrangements writes the three-way comparison: coupled single queue,
// DualPI2 dual queue, and FQ-CoDel per-flow queues.
func PrintArrangements(w io.Writer, dq *DualQResult, fqr FQRow) {
	fmt.Fprintln(w, "# Queue arrangements under 1 Cubic + 1 DCTCP (40 Mb/s, RTT 10 ms)")
	fmt.Fprintln(w, "arrangement\tratio\tjain\tscalable_delay_ms\tclassic_delay_ms\tutil\tnetwork-needs")
	s, d := dq.Single, dq.Dual
	fmt.Fprintf(w, "single-pi2\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tECN classifier only\n",
		s.Ratio, s.Jain, s.LDelayMs.Mean, s.CDelayMs.Mean, s.Util)
	fmt.Fprintf(w, "dualpi2\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tECN classifier + 2 queues\n",
		d.Ratio, d.Jain, d.LDelayMs.Mean, d.CDelayMs.Mean, d.Util)
	fmt.Fprintf(w, "fq-codel\t%.3f\t%.3f\t%.2f\t%.2f\t%.3f\tper-flow state + 5-tuple inspection\n",
		fqr.Ratio, fqr.Jain, fqr.DelayMs.Mean, fqr.DelayMs.Mean, fqr.Util)
}

// Print writes the comparison table.
func (r *DualQResult) Print(w io.Writer) {
	fmt.Fprintln(w, "# DualPI2 extension: single coupled queue vs dual queue (40 Mb/s, RTT 10 ms)")
	fmt.Fprintln(w, "arrangement\tratio\tjain\tL_mean_ms\tL_p99_ms\tC_mean_ms\tC_p99_ms\tutil")
	for _, a := range []struct {
		name string
		dualArm
	}{{"single-queue", r.Single}, {"dualpi2", r.Dual}} {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n", a.name, a.Ratio, a.Jain,
			a.LDelayMs.Mean, a.LDelayMs.P99, a.CDelayMs.Mean, a.CDelayMs.P99, a.Util)
	}
	fmt.Fprintln(w, "# the dual queue holds Scalable (L) delay near zero while the Classic (C)")
	fmt.Fprintln(w, "# queue keeps its 20 ms target — the step the paper's conclusion points to")
}
