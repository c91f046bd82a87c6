package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/traffic"
)

// PrintTable1 writes the default AQM parameters (Table 1) as the harness
// actually configures them, so the mapping paper → code is auditable.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "# Table 1: default parameters for the different AQMs")
	fmt.Fprintln(w, "aqm\ttarget\ttupdate\talpha_hz\tbeta_hz\tburst\tbuffer_pkts\tnotes")
	fmt.Fprintln(w, "pie\t20ms\t32ms\t0.1250\t1.2500\t100ms\t40000\tall Linux heuristics, reworked ECN overload (cap 25%)")
	fmt.Fprintln(w, "bare-pie\t20ms\t32ms\t0.1250\t1.2500\t-\t40000\tauto-tune only, extra heuristics off")
	fmt.Fprintln(w, "pi\t20ms\t32ms\t0.1250\t1.2500\t-\t40000\tfixed gains, linear output (Fig 6 'pi')")
	fmt.Fprintln(w, "pi2\t20ms\t32ms\t0.3125\t3.1250\t-\t40000\tgains on p'; classic prob = p'^2, cap 25%")
	fmt.Fprintln(w, "pi2(scalable)\t20ms\t32ms\t0.6250\t6.2500\t-\t40000\teffective gains on p_s = k*p', k = 2 (Table 1 DCTCP row)")
}

// FCTResult compares short-flow completion times across AQMs — the paper's
// Section 6 claim that mixed short-flow completion times are essentially
// the same for PIE, bare-PIE and PI2 in a single queue.
type FCTResult struct {
	// ByAQM maps AQM name → FCT quantiles in seconds.
	ByAQM map[string]Quantiles
	// Flows counts completed flows per AQM.
	Flows map[string]int
}

// fctAQMs is the comparison set, in print order.
var fctAQMs = []string{"pie", "bare-pie", "pi2"}

// FigFCT runs a web-like workload (Poisson arrivals, bounded-Pareto sizes)
// over each AQM at 40 Mb/s, 20 ms RTT and reports flow-completion-time
// quantiles. All three AQMs share SeedIndex 0: same arrival process, same
// flow sizes — the comparison varies only the queue.
func FigFCT(o campaign.Options) (*FCTResult, error) {
	rs, err := results(fctTasks(o), execFor(o, "fct", gridSpec{}))
	res := &FCTResult{ByAQM: make(map[string]Quantiles), Flows: make(map[string]int)}
	for i, name := range fctAQMs {
		res.ByAQM[name] = quantiles(rs[i].WebFCT)
		res.Flows[name] = rs[i].WebFCT.N()
	}
	return res, err
}

// fctTasks builds the AQM comparison arms; all share SeedIndex 0.
func fctTasks(o campaign.Options) []campaign.Task {
	dur := o.Scale(120 * time.Second)
	var tasks []campaign.Task
	for _, name := range fctAQMs {
		name := name
		tasks = append(tasks, campaign.Task{
			Name: "fct/" + name, SeedIndex: 0,
			Params: map[string]any{"aqm": name},
			Run: func(tc *campaign.TaskCtx) any {
				factory, _ := FactoryByName(name, 20*time.Millisecond)
				sc := Scenario{
					Seed:        tc.Seed,
					Watch:       tc.Watch,
					LinkRateBps: 40e6,
					NewAQM:      factory,
					// Long-running background load plus the short flows.
					Bulk: []traffic.BulkFlowSpec{
						{CC: "reno", Count: 2, RTT: 20 * time.Millisecond},
					},
					Web: []traffic.WebSpec{{
						ArrivalRate: 20,
						CC:          "reno",
						RTT:         20 * time.Millisecond,
						StopAt:      dur - dur/10,
					}},
					Duration: dur,
					WarmUp:   dur / 10,
				}
				return Run(sc)
			},
		})
	}
	return tasks
}

// Print writes the FCT comparison.
func (r *FCTResult) Print(w io.Writer) {
	fmt.Fprintln(w, "# Short flow completion times (web-like workload, 40 Mb/s, RTT 20 ms)")
	fmt.Fprintln(w, "aqm\tflows\tfct_p25_ms\tfct_mean_ms\tfct_p99_ms")
	for _, name := range []string{"pie", "bare-pie", "pi2"} {
		q := r.ByAQM[name]
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\n",
			name, r.Flows[name], q.P25*1e3, q.Mean*1e3, q.P99*1e3)
	}
	fmt.Fprintln(w, "# paper: completion times with PIE, bare-PIE and PI2 were essentially the same")
}
