package experiments

import (
	"fmt"
	"io"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/faults"
	"pi2/internal/traffic"
)

// The chaos family is the robustness tier: the paper's coexistence traffic
// (Classic vs Scalable through one bottleneck) subjected to the channel
// faults real deployments see — bursty loss, capacity flaps, reordering and
// duplication — comparing how PIE, PI2 and DualPI2 hold their delay target
// and fairness when the environment misbehaves. Arms of one scenario share
// a seed index, so each AQM faces the identical fault schedule.
const (
	chaosLinkBps = 40e6
	chaosRTT     = 10 * time.Millisecond
)

// ChaosScenarios is the impairment axis of the chaos grid.
var ChaosScenarios = []string{"burst-loss", "flap", "chaos"}

// ChaosAQMs are the disciplines compared under each impairment.
var ChaosAQMs = []string{"pie", "pi2", "dualpi2"}

// chaosImpair builds a fresh fault configuration for one cell. A fresh
// value per cell matters: loss models are stateful (the Gilbert–Elliott
// chain remembers its state), so sharing one across parallel cells would
// leak fault state between runs.
func chaosImpair(scenario string, o campaign.Options) *faults.Config {
	// ~0.8% stationary loss in bursts of mean length 4 packets.
	ge := func() *faults.GilbertElliott {
		return &faults.GilbertElliott{PGB: 0.002, PBG: 0.25, LossBad: 1}
	}
	flap := func() faults.RateSchedule {
		return faults.Square{
			HighBps: chaosLinkBps,
			LowBps:  chaosLinkBps * 3 / 8, // 40 -> 15 Mb/s
			Period:  o.Scale(20 * time.Second),
		}
	}
	switch scenario {
	case "burst-loss":
		return &faults.Config{Loss: ge()}
	case "flap":
		return &faults.Config{Rate: flap()}
	case "chaos":
		return &faults.Config{
			Loss:          ge(),
			Rate:          flap(),
			ReorderProb:   0.01,
			ReorderDelay:  2 * time.Millisecond,
			ReorderJitter: time.Millisecond,
			DupProb:       0.002,
		}
	default:
		panic("unknown chaos scenario " + scenario)
	}
}

// ChaosPoint is one cell of the chaos grid: one AQM under one impairment
// scenario with the standard 4 Cubic + 4 DCTCP coexistence mix.
type ChaosPoint struct {
	Scenario string
	AQM      string

	// Jain is Jain's fairness index over all per-flow rates.
	Jain float64
	// QMeanMs / QP99Ms summarize per-packet queuing delay.
	QMeanMs, QP99Ms float64
	// Util is the bottleneck's busy fraction.
	Util float64
	// FaultDrops counts channel losses the impairment layer injected.
	FaultDrops int

	Events uint64

	failed bool // the cell failed: a FAILED row
}

// EventCount satisfies campaign.EventCounter for per-run events/sec records.
func (p ChaosPoint) EventCount() uint64 { return p.Events }

// Metrics implements campaign.MetricsReporter — the fingerprint the golden
// harness tracks for each chaos cell.
func (p ChaosPoint) Metrics() map[string]float64 {
	return map[string]float64{
		"jain":        p.Jain,
		"q_mean_ms":   p.QMeanMs,
		"q_p99_ms":    p.QP99Ms,
		"util":        p.Util,
		"fault_drops": float64(p.FaultDrops),
		"events":      float64(p.Events),
	}
}

// Chaos runs the impairment grid: every scenario × AQM cell across o.Jobs
// workers. AQM arms of one scenario share a seed index so they face the
// identical traffic and fault randomness — the comparison is paired. A
// failed cell comes back as a point marked failed (PrintChaos prints it as
// a FAILED row), and the error names it.
func Chaos(o campaign.Options) ([]ChaosPoint, error) {
	return grid(chaosTasks(o), execFor(o, "chaos", gridSpec{}), 1, func(recs []campaign.RunRecord) ChaosPoint {
		if p, ok := recs[0].Result.(ChaosPoint); ok {
			return p
		}
		scn, _ := recs[0].Params["scenario"].(string)
		aqmName, _ := recs[0].Params["aqm"].(string)
		return ChaosPoint{Scenario: scn, AQM: aqmName, failed: true}
	})
}

// chaosTasks builds the scenario × AQM matrix; AQM arms of one scenario
// share a seed index so they face identical traffic and fault randomness.
func chaosTasks(o campaign.Options) []campaign.Task {
	var tasks []campaign.Task
	for si, scn := range ChaosScenarios {
		for _, aqmName := range ChaosAQMs {
			scn, aqmName := scn, aqmName
			tasks = append(tasks, campaign.Task{
				Name:      "chaos",
				SeedIndex: si, // paired across AQMs within one scenario
				Params:    map[string]any{"scenario": scn, "aqm": aqmName},
				Run: func(tc *campaign.TaskCtx) any {
					return runChaosCell(o, tc, scn, aqmName)
				},
			})
		}
	}
	return tasks
}

func chaosDuration(o campaign.Options) time.Duration {
	return o.Scale(60 * time.Second)
}

// runChaosCell is one chaos cell through the scenario runner with the
// cell's own impairment config, its bottleneck named by aqmName.
func runChaosCell(o campaign.Options, tc *campaign.TaskCtx, scenario, aqmName string) ChaosPoint {
	dur := chaosDuration(o)
	sc := Scenario{
		Seed:        tc.Seed,
		Watch:       tc.Watch,
		Shards:      tc.Shards,
		LinkRateBps: chaosLinkBps,
		Impair:      chaosImpair(scenario, o),
		Bulk: []traffic.BulkFlowSpec{
			{CC: "cubic", Count: 4, RTT: chaosRTT, Label: "cubic"},
			{CC: "dctcp", Count: 4, RTT: chaosRTT, Label: "dctcp"},
		},
		Duration: dur,
		WarmUp:   dur / 4,
	}
	sc.setBottleneck(aqmName, o.TargetDelay())
	r := Run(sc)
	return ChaosPoint{
		Scenario:   scenario,
		AQM:        aqmName,
		Jain:       jainOf(r),
		QMeanMs:    r.Sojourn.Mean() * 1e3,
		QP99Ms:     r.Sojourn.Percentile(99) * 1e3,
		Util:       r.Utilization,
		FaultDrops: r.FaultDrops,
		Events:     r.Events,
	}
}

// PrintChaos writes the robustness table. Failed cells render as FAILED
// rows so a partially-degraded grid still reports every cell it completed.
func PrintChaos(w io.Writer, pts []ChaosPoint) {
	fmt.Fprintln(w, "# Chaos tier: 4 cubic + 4 dctcp at 40 Mb/s, RTT 10 ms, under channel faults")
	fmt.Fprintln(w, "# burst-loss: Gilbert-Elliott bursts (~0.8% loss, mean burst 4 pkts);")
	fmt.Fprintln(w, "# flap: capacity square wave 40<->15 Mb/s; chaos: both + reorder + dup")
	fmt.Fprintln(w, "scenario\taqm\tjain\tq_mean_ms\tq_p99_ms\tutil\tfault_drops")
	for _, p := range pts {
		if p.failed {
			fmt.Fprintf(w, "%s\t%s\tFAILED\tFAILED\tFAILED\tFAILED\tFAILED\n", p.Scenario, p.AQM)
			continue
		}
		fmt.Fprintf(w, "%s\t%s\t%.3f\t%.2f\t%.2f\t%.3f\t%d\n",
			p.Scenario, p.AQM, p.Jain, p.QMeanMs, p.QP99Ms, p.Util, p.FaultDrops)
	}
}
