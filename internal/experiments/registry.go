package experiments

import (
	"fmt"
	"io"
	"os"

	"pi2/internal/campaign"
	"pi2/internal/fluid"
)

// memoSweep computes the coexistence grid once per invocation; fig15–fig18
// and "sweep" all print from the same points.
func memoSweep(o *campaign.Options) []SweepPoint {
	return o.Memo("sweep", func() any {
		return CoexistenceSweep(*o)
	}).([]SweepPoint)
}

func memoCombos(o *campaign.Options) []ComboPoint {
	return o.Memo("combos", func() any {
		return FlowCombos(*o, nil)
	}).([]ComboPoint)
}

func memoDualQ(o *campaign.Options) *DualQResult {
	return o.Memo("dualq", func() any {
		return DualQ(*o, 1, 1)
	}).(*DualQResult)
}

// printer adapts a figure whose driver returns a self-printing result.
func printer(run func(o *campaign.Options, w io.Writer)) func(*campaign.Options, io.Writer) error {
	return func(o *campaign.Options, w io.Writer) error {
		run(o, w)
		fmt.Fprintln(w)
		return nil
	}
}

func init() {
	campaign.Register(campaign.Experiment{
		Name: "table1", Desc: "default AQM parameters (Table 1)", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { PrintTable1(w) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig4", Desc: "Bode margins, Reno + PI on p (analytic)", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { printFig4(w, o.Quick) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig5", Desc: "PIE 'tune' steps vs sqrt(2p) (analytic)", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { printFig5(w, o.Quick) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig6", Desc: "queue delay under varying intensity: PI vs PI2", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { Fig6(*o).Print(w) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig7", Desc: "Bode margins: reno pie / reno pi2 / scal pi (analytic)", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { printFig7(w, o.Quick) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig11", Desc: "PIE vs PI2 queue delay under three load mixes", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { Fig11(*o).Print(w) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig12", Desc: "queue delay across link-rate changes", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { Fig12(*o).Print(w) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig13", Desc: "DCTCP on PI2 under varying intensity", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { Fig13(*o).Print(w) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig14", Desc: "delay quantiles per target, PIE vs PI2", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { Fig14(*o).Print(w) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig15", Desc: "coexistence sweep: throughput balance",
		Run: printer(func(o *campaign.Options, w io.Writer) { PrintFig15(w, memoSweep(o)) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig16", Desc: "coexistence sweep: queuing delay",
		Run: printer(func(o *campaign.Options, w io.Writer) { PrintFig16(w, memoSweep(o)) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig17", Desc: "coexistence sweep: mark/drop probability",
		Run: printer(func(o *campaign.Options, w io.Writer) { PrintFig17(w, memoSweep(o)) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig18", Desc: "coexistence sweep: link utilisation",
		Run: printer(func(o *campaign.Options, w io.Writer) { PrintFig18(w, memoSweep(o)) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "sweep", Desc: "full coexistence grid (figures 15-18)", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) {
			pts := memoSweep(o)
			PrintFig15(w, pts)
			fmt.Fprintln(w)
			PrintFig16(w, pts)
			fmt.Fprintln(w)
			PrintFig17(w, pts)
			fmt.Fprintln(w)
			PrintFig18(w, pts)
		}),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig19", Desc: "flow-count combos: per-flow rate ratio",
		Run: printer(func(o *campaign.Options, w io.Writer) { PrintFig19(w, memoCombos(o)) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "fig20", Desc: "flow-count combos: normalized rates + fairness",
		Run: printer(func(o *campaign.Options, w io.Writer) { PrintFig20(w, memoCombos(o)) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "combos", Desc: "flow-count combinations (figures 19-20)", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) {
			pts := memoCombos(o)
			PrintFig19(w, pts)
			fmt.Fprintln(w)
			PrintFig20(w, pts)
		}),
	})
	campaign.Register(campaign.Experiment{
		Name: "fct", Desc: "short-flow completion times across AQMs", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { FigFCT(*o).Print(w) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "rttfair", Desc: "RTT-heterogeneity sweep (extension)", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { PrintRTTFair(w, RTTFairSweep(*o)) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "dualq", Desc: "single coupled queue vs DualPI2", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) { memoDualQ(o).Print(w) }),
	})
	campaign.Register(campaign.Experiment{
		Name: "arrangements", Desc: "queue arrangements: single-PI2 / DualPI2 / FQ-CoDel", InAll: true,
		Run: printer(func(o *campaign.Options, w io.Writer) {
			PrintArrangements(w, memoDualQ(o), FQArrangement(*o, 1, 1))
		}),
	})
	campaign.Register(campaign.Experiment{
		Name: "chaos", Desc: "robustness tier: PIE/PI2/DualPI2 under bursty loss, rate flaps, reordering", InAll: true,
		Run: func(o *campaign.Options, w io.Writer) error {
			pts, failed, err := Chaos(*o)
			PrintChaos(w, pts, failed)
			fmt.Fprintln(w)
			return err
		},
	})
	campaign.Register(campaign.Experiment{
		Name: "interop", Desc: "L4S conformance matrix: {prague,dctcp,cubic,reno} x {classic,accurate ECN} x {pie,pi2,dualpi2}", InAll: true,
		Run: func(o *campaign.Options, w io.Writer) error {
			pts, failed, err := Interop(*o)
			PrintInterop(w, pts, failed)
			fmt.Fprintln(w)
			return err
		},
	})
	// The heavy tier stays out of "all" (and hence the golden set): its big
	// cells take minutes. The table on stdout is seed-deterministic like every
	// other experiment; host-dependent throughput figures go to stderr.
	campaign.Register(campaign.Experiment{
		Name: "heavy", Desc: "flow-count scaling tier: 10-5000 flows, PIE/PI2/DualPI2 (extension)",
		Run: func(o *campaign.Options, w io.Writer) error {
			pts, err := Heavy(*o)
			PrintHeavy(w, pts)
			fmt.Fprintln(w)
			PrintHeavyPerf(os.Stderr, pts)
			return err
		},
	})
}

// bodePoints picks the analytic figures' sample density.
func bodePoints(quick bool) int {
	if quick {
		return 13
	}
	return 49
}

func printFig4(w io.Writer, quick bool) {
	fmt.Fprintln(w, "# Figure 4: Bode margins, Reno + PI on p (R0=100ms, alpha=0.125*tune, beta=1.25*tune, T=32ms)")
	fmt.Fprintln(w, "p\tline\tgain_margin_db\tphase_margin_deg")
	for _, mp := range fluid.Figure4(bodePoints(quick)) {
		for _, line := range []string{"tune=auto", "tune=1", "tune=1/2", "tune=1/8"} {
			m := mp.ByLine[line]
			fmt.Fprintf(w, "%.3g\t%s\t%.2f\t%.2f\n", mp.P, line, m.GainMarginDB, m.PhaseMarginDeg)
		}
	}
}

func printFig5(w io.Writer, quick bool) {
	fmt.Fprintln(w, "# Figure 5: PIE 'tune' steps vs sqrt(2p)")
	fmt.Fprintln(w, "p\ttune\tsqrt_2p")
	for _, tp := range fluid.Figure5(bodePoints(quick)) {
		fmt.Fprintf(w, "%.3g\t%.6g\t%.6g\n", tp.P, tp.Tune, tp.SqrtTwoP)
	}
}

func printFig7(w io.Writer, quick bool) {
	fmt.Fprintln(w, "# Figure 7: Bode margins (R0=100ms, T=32ms): reno pie / reno pi2 / scal pi")
	fmt.Fprintln(w, "p_prime\tline\tgain_margin_db\tphase_margin_deg")
	for _, mp := range fluid.Figure7(bodePoints(quick)) {
		for _, line := range []string{"reno pie", "reno pi2", "scal pi"} {
			m := mp.ByLine[line]
			fmt.Fprintf(w, "%.3g\t%s\t%.2f\t%.2f\n", mp.P, line, m.GainMarginDB, m.PhaseMarginDeg)
		}
	}
}
