package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/stats"
	"pi2/internal/traffic"
)

// ComboPoint is one flow-count combination of Figures 19 and 20:
// NA Cubic flows (A) against NB ECN-capable flows (B) at 40 Mb/s, 10 ms RTT.
type ComboPoint struct {
	NA, NB int
	AQM    string
	Pair   string

	// RatioPerFlow is (mean per-flow rate of A)/(mean per-flow rate of B).
	RatioPerFlow float64
	// NormA / NormB summarize per-flow rates normalized by the fair share
	// capacity/(NA+NB) — Figure 20's P1/mean/P99.
	NormA, NormB Quantiles
	// Jain is Jain's fairness index over all individual flow rates.
	Jain float64
	// Events is the cell's simulator-event count (run-record metric).
	Events uint64
}

// EventCount satisfies campaign.EventCounter for per-run events/sec records.
func (p ComboPoint) EventCount() uint64 { return p.Events }

// DefaultCombos is the flow-count series of Figures 19–20: all splits of
// ten flows plus the balanced 1:1 case.
func DefaultCombos() [][2]int {
	out := [][2]int{{1, 1}}
	for a := 0; a <= 10; a++ {
		out = append(out, [2]int{a, 10 - a})
	}
	return out
}

// FlowCombos runs the Figures 19–20 experiment: the given (NA, NB) splits
// for each pair (Cubic vs DCTCP, Cubic vs ECN-Cubic) and AQM (PIE, PI2) at
// 40 Mb/s, 10 ms RTT.
func FlowCombos(o campaign.Options, combos [][2]int) ([]ComboPoint, error) {
	return grid(combosTasks(o, combos), execFor(o, "combos", gridSpec{Combos: combos}), 1, cell[ComboPoint])
}

// combosTasks builds the pair × AQM × combo matrix. A nil combo list
// selects the defaults; both that resolution and the quick override run
// inside the builder so coordinator and worker derive the same matrix
// from the same spec.
func combosTasks(o campaign.Options, combos [][2]int) []campaign.Task {
	if combos == nil {
		combos = DefaultCombos()
	}
	if o.Quick {
		combos = [][2]int{{1, 1}, {1, 9}, {5, 5}, {9, 1}}
	}
	var tasks []campaign.Task
	for _, pair := range []string{"dctcp", "ecn-cubic"} {
		for _, aqmName := range []string{"pie", "pi2"} {
			for _, c := range combos {
				pair, aqmName, na, nb := pair, aqmName, c[0], c[1]
				tasks = append(tasks, campaign.Task{
					Name:      "combos",
					SeedIndex: len(tasks),
					Params: map[string]any{
						"pair": pair, "aqm": aqmName, "na": na, "nb": nb,
					},
					Run: func(tc *campaign.TaskCtx) any {
						return runCombo(o, tc, na, nb, aqmName, pair)
					},
				})
			}
		}
	}
	return tasks
}

func runCombo(o campaign.Options, tc *campaign.TaskCtx, na, nb int, aqmName, pair string) ComboPoint {
	target := 20 * time.Millisecond
	factory, _ := FactoryByName(aqmName, target)
	dur := o.Scale(60 * time.Second)
	const (
		linkBps = 40e6
		rtt     = 10 * time.Millisecond
	)
	sc := Scenario{
		Seed:        tc.Seed,
		Watch:       tc.Watch,
		LinkRateBps: linkBps,
		NewAQM:      factory,
		Duration:    dur,
		WarmUp:      dur * 2 / 5,
	}
	if na > 0 {
		sc.Bulk = append(sc.Bulk, traffic.BulkFlowSpec{CC: "cubic", Count: na, RTT: rtt, Label: "A"})
	}
	if nb > 0 {
		sc.Bulk = append(sc.Bulk, traffic.BulkFlowSpec{CC: pair, Count: nb, RTT: rtt, Label: "B"})
	}
	res := Run(sc)

	pt := ComboPoint{NA: na, NB: nb, AQM: aqmName, Pair: pair, Events: res.Events}
	fair := linkBps / float64(na+nb)
	var aRates, bRates []float64
	for _, g := range res.Groups {
		switch g.Label {
		case "A":
			aRates = g.FlowRates
		case "B":
			bRates = g.FlowRates
		}
	}
	meanOf := func(xs []float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mb := meanOf(bRates); mb > 0 && na > 0 {
		pt.RatioPerFlow = meanOf(aRates) / mb
	}
	pt.NormA = normQuantiles(aRates, fair)
	pt.NormB = normQuantiles(bRates, fair)
	pt.Jain = stats.JainIndex(append(append([]float64{}, aRates...), bRates...))
	return pt
}

func normQuantiles(rates []float64, fair float64) Quantiles {
	if len(rates) == 0 || fair <= 0 {
		return Quantiles{}
	}
	var s sampleLike
	for _, r := range rates {
		s.Add(r / fair)
	}
	return quantiles(&s)
}

// sampleLike is a tiny local percentile helper over a handful of values.
type sampleLike struct{ xs []float64 }

func (s *sampleLike) Add(x float64) { s.xs = append(s.xs, x) }

func (s *sampleLike) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentiles satisfies the quantiles() helper with one sort for the whole
// family. Insertion sort: the slices here hold at most ten flows.
func (s *sampleLike) Percentiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(s.xs) == 0 {
		return out
	}
	xs := append([]float64(nil), s.xs...)
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
	for i, q := range qs {
		pos := q / 100 * float64(len(xs)-1)
		lo := int(pos)
		if lo >= len(xs)-1 {
			out[i] = xs[len(xs)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = xs[lo]*(1-frac) + xs[lo+1]*frac
	}
	return out
}

// PrintFig19 writes the per-flow rate-ratio table (Figure 19).
func PrintFig19(w io.Writer, pts []ComboPoint) {
	fmt.Fprintln(w, "# Figure 19: per-flow throughput ratio for flow-count combinations (40 Mb/s, RTT 10 ms)")
	fmt.Fprintln(w, "pair\taqm\tcombo\tratio_per_flow")
	for _, p := range pts {
		if p.NA == 0 || p.NB == 0 {
			continue // ratio undefined
		}
		fmt.Fprintf(w, "%s\t%s\tA%d-B%d\t%.3f\n", p.Pair, p.AQM, p.NA, p.NB, p.RatioPerFlow)
	}
}

// PrintFig20 writes the normalized-rate table (Figure 20).
func PrintFig20(w io.Writer, pts []ComboPoint) {
	fmt.Fprintln(w, "# Figure 20: normalized per-flow rate (rate / fair share), P1/mean/P99; jain = fairness index")
	fmt.Fprintln(w, "pair\taqm\tcombo\tA_p1\tA_mean\tA_p99\tB_p1\tB_mean\tB_p99\tjain")
	for _, p := range pts {
		fmt.Fprintf(w, "%s\t%s\tA%d-B%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.3f\n",
			p.Pair, p.AQM, p.NA, p.NB,
			p.NormA.P1, p.NormA.Mean, p.NormA.P99,
			p.NormB.P1, p.NormB.Mean, p.NormB.P99, p.Jain)
	}
}
