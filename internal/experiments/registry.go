package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"

	"pi2/internal/campaign"
	"pi2/internal/fluid"
)

// memo runs a grid once per invocation and caches its result together with
// its error: fig15–fig18 and "sweep" all print from the same points, and
// each view reports the same failed cells.
func memo[T any](o *campaign.Options, key string, run func() (T, error)) (T, error) {
	type memoized struct {
		v   T
		err error
	}
	m := o.Memo(key, func() any {
		v, err := run()
		return memoized{v, err}
	}).(memoized)
	return m.v, m.err
}

func memoSweep(o *campaign.Options) ([]SweepPoint, error) {
	return memo(o, "sweep", func() ([]SweepPoint, error) { return CoexistenceSweep(*o) })
}

func memoCombos(o *campaign.Options) ([]ComboPoint, error) {
	return memo(o, "combos", func() ([]ComboPoint, error) { return FlowCombos(*o, nil) })
}

func memoDualQ(o *campaign.Options) (*DualQResult, error) {
	return memo(o, "dualq", func() (*DualQResult, error) { return DualQ(*o, 1, 1) })
}

// table adapts a driver and its printer into an experiment: the table is
// printed, failed cells and all, and the driver's error (every failed cell)
// is the experiment's.
func table[T any](run func(*campaign.Options) (T, error), print func(io.Writer, T)) func(*campaign.Options, io.Writer) error {
	return func(o *campaign.Options, w io.Writer) error {
		v, err := run(o)
		print(w, v)
		fmt.Fprintln(w)
		return err
	}
}

// byValue runs a driver that takes its options by value.
func byValue[T any](driver func(campaign.Options) (T, error)) func(*campaign.Options) (T, error) {
	return func(o *campaign.Options) (T, error) { return driver(*o) }
}

// analytic is the "driver" of the analytic tables, which run no cells: their
// only input is the sample density.
func analytic(o *campaign.Options) (bool, error) { return o.Quick, nil }

// printSweep prints every figure of the coexistence grid.
func printSweep(w io.Writer, pts []SweepPoint) {
	PrintFig15(w, pts)
	fmt.Fprintln(w)
	PrintFig16(w, pts)
	fmt.Fprintln(w)
	PrintFig17(w, pts)
	fmt.Fprintln(w)
	PrintFig18(w, pts)
}

// printCombos prints both figures of the flow-count grid.
func printCombos(w io.Writer, pts []ComboPoint) {
	PrintFig19(w, pts)
	fmt.Fprintln(w)
	PrintFig20(w, pts)
}

// arrangements runs the dualq arms and the FQ-CoDel arm.
type arrangements struct {
	dq  *DualQResult
	fqr FQRow
}

func runArrangements(o *campaign.Options) (arrangements, error) {
	dq, err := memoDualQ(o)
	fqr, fqErr := FQArrangement(*o, 1, 1)
	return arrangements{dq, fqr}, errors.Join(err, fqErr)
}

// printHeavy prints the heavy table, and its host-dependent perf block to
// stderr: the table on stdout stays seed-deterministic.
func printHeavy(w io.Writer, pts []HeavyPoint) {
	PrintHeavy(w, pts)
	PrintHeavyPerf(os.Stderr, pts)
}

func init() {
	for _, e := range []campaign.Experiment{
		{Name: "table1", Desc: "default AQM parameters (Table 1)", InAll: true,
			Run: table(analytic, func(w io.Writer, _ bool) { PrintTable1(w) })},
		{Name: "fig4", Desc: "Bode margins, Reno + PI on p (analytic)", InAll: true,
			Run: table(analytic, printFig4)},
		{Name: "fig5", Desc: "PIE 'tune' steps vs sqrt(2p) (analytic)", InAll: true,
			Run: table(analytic, printFig5)},
		{Name: "fig6", Desc: "queue delay under varying intensity: PI vs PI2", InAll: true,
			Run: table(byValue(Fig6), func(w io.Writer, r *Fig6Result) { r.Print(w) })},
		{Name: "fig7", Desc: "Bode margins: reno pie / reno pi2 / scal pi (analytic)", InAll: true,
			Run: table(analytic, printFig7)},
		{Name: "fig11", Desc: "PIE vs PI2 queue delay under three load mixes", InAll: true,
			Run: table(byValue(Fig11), func(w io.Writer, r *Fig11Result) { r.Print(w) })},
		{Name: "fig12", Desc: "queue delay across link-rate changes", InAll: true,
			Run: table(byValue(Fig12), func(w io.Writer, r *Fig12Result) { r.Print(w) })},
		{Name: "fig13", Desc: "DCTCP on PI2 under varying intensity", InAll: true,
			Run: table(byValue(Fig13), func(w io.Writer, r *Fig13Result) { r.Print(w) })},
		{Name: "fig14", Desc: "delay quantiles per target, PIE vs PI2", InAll: true,
			Run: table(byValue(Fig14), func(w io.Writer, r *Fig14Result) { r.Print(w) })},
		{Name: "fig15", Desc: "coexistence sweep: throughput balance",
			Run: table(memoSweep, PrintFig15)},
		{Name: "fig16", Desc: "coexistence sweep: queuing delay",
			Run: table(memoSweep, PrintFig16)},
		{Name: "fig17", Desc: "coexistence sweep: mark/drop probability",
			Run: table(memoSweep, PrintFig17)},
		{Name: "fig18", Desc: "coexistence sweep: link utilisation",
			Run: table(memoSweep, PrintFig18)},
		{Name: "sweep", Desc: "full coexistence grid (figures 15-18)", InAll: true,
			Run: table(memoSweep, printSweep)},
		{Name: "fig19", Desc: "flow-count combos: per-flow rate ratio",
			Run: table(memoCombos, PrintFig19)},
		{Name: "fig20", Desc: "flow-count combos: normalized rates + fairness",
			Run: table(memoCombos, PrintFig20)},
		{Name: "combos", Desc: "flow-count combinations (figures 19-20)", InAll: true,
			Run: table(memoCombos, printCombos)},
		{Name: "fct", Desc: "short-flow completion times across AQMs", InAll: true,
			Run: table(byValue(FigFCT), func(w io.Writer, r *FCTResult) { r.Print(w) })},
		{Name: "rttfair", Desc: "RTT-heterogeneity sweep (extension)", InAll: true,
			Run: table(byValue(RTTFairSweep), PrintRTTFair)},
		{Name: "dualq", Desc: "single coupled queue vs DualPI2", InAll: true,
			Run: table(memoDualQ, func(w io.Writer, r *DualQResult) { r.Print(w) })},
		{Name: "arrangements", Desc: "queue arrangements: single-PI2 / DualPI2 / FQ-CoDel", InAll: true,
			Run: table(runArrangements, func(w io.Writer, a arrangements) { PrintArrangements(w, a.dq, a.fqr) })},
		{Name: "chaos", Desc: "robustness tier: PIE/PI2/DualPI2 under bursty loss, rate flaps, reordering", InAll: true,
			Run: table(byValue(Chaos), PrintChaos)},
		{Name: "interop", Desc: "L4S conformance matrix: {prague,dctcp,cubic,reno} x {classic,accurate ECN} x {pie,pi2,dualpi2}", InAll: true,
			Run: table(byValue(Interop), PrintInterop)},
		// The heavy tier stays out of "all" (and hence the golden set): its
		// big cells take minutes.
		{Name: "heavy", Desc: "flow-count scaling tier: 10-5000 flows, PIE/PI2/DualPI2 (extension)",
			Run: table(byValue(Heavy), printHeavy)},
	} {
		campaign.Register(e)
	}
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
