// Command pi2sim runs a single bottleneck scenario and prints its queue
// delay / throughput time series and a summary — a generic driver for
// exploring configurations beyond the paper's fixed experiments.
//
// Example:
//
//	pi2sim -aqm pi2 -link 10M -rtt 100ms -flows 5 -cc reno -dur 100s
//	pi2sim -aqm pi2 -link 40M -rtt 10ms -flows 1 -cc cubic -flows2 1 -cc2 dctcp
//	pi2sim -aqm pi2 -link 40M -reps 8 -jobs 4   # 8 seeds, 4 at a time
//
// With -reps N > 1 the scenario is replicated under N derived seeds (run
// across -jobs workers) and a per-replication summary plus mean ± stddev
// aggregates are printed instead of the single-run report; pi2sim exits 1
// when any replication failed.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/experiments"
	"pi2/internal/plot"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses the flags and runs the scenario they describe. It returns the
// process exit code: 2 for a bad flag or scenario, 1 when a replication
// failed.
func run(args []string, stdout, stderr io.Writer) int {
	inv, code := parse(args, stderr)
	if code >= 0 {
		return code
	}
	if inv.reps > 1 {
		return replicate(stdout, stderr, inv.sc, inv.reps, inv.jobs, inv.label)
	}
	report(stdout, experiments.Run(inv.sc), inv.series, inv.plot, inv.label)
	return 0
}

// invocation is one parsed command line: the scenario and how to report it.
type invocation struct {
	sc           experiments.Scenario
	label        string
	reps, jobs   int
	series, plot bool
}

// parse reads the flags, or the -config file they name, into a scenario
// file's form and builds it through experiments.ScenarioJSON.Build, so the
// flags get the same checks as -config. It returns an exit code ≥ 0 when
// the run must stop there: 0 for -help, 2 for a bad flag or scenario.
func parse(args []string, stderr io.Writer) (invocation, int) {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		aqmName  = fs.String("aqm", "pi2", "AQM: pi2, pie, bare-pie, pi, red, codel, taildrop")
		linkStr  = fs.String("link", "10M", "bottleneck rate in bits/s (suffix K/M/G)")
		rtt      = fs.Duration("rtt", 100*time.Millisecond, "base RTT")
		flows    = fs.Int("flows", 5, "number of flows in the first group")
		cc       = fs.String("cc", "reno", "congestion control of the first group")
		flows2   = fs.Int("flows2", 0, "number of flows in the second group")
		cc2      = fs.String("cc2", "dctcp", "congestion control of the second group")
		udp      = fs.Float64("udp", 0, "additional unresponsive UDP load in bits/s")
		dur      = fs.Duration("dur", 100*time.Second, "simulated duration")
		warm     = fs.Duration("warmup", 0, "stats warm-up (default dur/4)")
		target   = fs.Duration("target", 20*time.Millisecond, "AQM target delay")
		seed     = fs.Int64("seed", 1, "random seed")
		series   = fs.Bool("series", true, "print the 1 s time series")
		sack     = fs.Bool("sack", false, "enable SACK loss recovery on all flows")
		ackEvery = fs.Int("ackevery", 1, "delayed/stretch ACKs: acknowledge every Nth segment")
		buffer   = fs.Int("buffer", 0, "bottleneck buffer in packets (default 40000)")
		doPlot   = fs.Bool("plot", false, "render an ASCII chart of the queue-delay series")
		config   = fs.String("config", "", "load the scenario from a JSON file instead of flags")
		reps     = fs.Int("reps", 1, "replications under derived seeds (aggregate report when > 1)")
		jobs     = fs.Int("jobs", 1, "parallel replications")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return invocation{}, 0
		}
		return invocation{}, 2
	}
	inv := invocation{reps: *reps, jobs: *jobs, series: *series, plot: *doPlot}
	fail := func(err error) (invocation, int) {
		fmt.Fprintln(stderr, "pi2sim:", err)
		return invocation{}, 2
	}

	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			return fail(err)
		}
		sc, err := experiments.LoadScenario(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		inv.sc, inv.label = sc, "config:"+*config
		return inv, -1
	}
	rate, err := parseRate(*linkStr)
	if err != nil {
		return fail(err)
	}
	if *warm == 0 {
		*warm = *dur / 4
	}
	j := experiments.ScenarioJSON{
		Seed:          *seed,
		LinkMbps:      rate / 1e6,
		BufferPackets: *buffer,
		AQM:           *aqmName,
		TargetMs:      float64(*target) / float64(time.Millisecond),
		Duration:      dur.String(),
		WarmUp:        warm.String(),
		SACK:          *sack,
		AckEvery:      *ackEvery,
	}
	if *flows > 0 {
		j.Flows = append(j.Flows, experiments.FlowJSON{CC: *cc, Count: *flows, RTT: rtt.String(), Label: "group1"})
	}
	if *flows2 > 0 {
		j.Flows = append(j.Flows, experiments.FlowJSON{CC: *cc2, Count: *flows2, RTT: rtt.String(), Label: "group2"})
	}
	if *udp > 0 {
		j.UDP = []experiments.UDPJSON{{RateMbps: *udp / 1e6}}
	}
	sc, err := j.Build()
	if err != nil {
		return fail(err)
	}
	inv.sc = sc
	inv.label = fmt.Sprintf("aqm=%s link=%.0f rtt=%v target=%v dur=%v", *aqmName, rate, *rtt, *target, *dur)
	return inv, -1
}

// replicate runs the scenario under reps derived seeds on a jobs-wide pool
// and prints per-replication summaries plus mean ± stddev aggregates over
// the replications that completed. It returns the exit code: 1 when any
// replication failed.
func replicate(stdout, stderr io.Writer, sc experiments.Scenario, reps, jobs int, label string) int {
	base := sc.Seed
	tasks := make([]campaign.Task, reps)
	for i := range tasks {
		i := i
		tasks[i] = campaign.Task{
			Name:      fmt.Sprintf("rep%d", i),
			SeedIndex: i,
			Run: func(tc *campaign.TaskCtx) any {
				rsc := sc
				rsc.Seed = tc.Seed
				rsc.Watch = tc.Watch
				return experiments.Run(rsc)
			},
		}
	}
	recs := campaign.Execute(tasks, campaign.ExecOptions{Jobs: jobs, BaseSeed: base})

	fmt.Fprintf(stdout, "# %s reps=%d jobs=%d base_seed=%d\n", label, reps, jobs, base)
	fmt.Fprintln(stdout, "rep\tseed\tqdelay_mean_ms\tqdelay_p99_ms\tutil\tgoodput_mbps")
	var qMeans, qP99s, utils, goodputs []float64
	code := 0
	for i, rec := range recs {
		res, ok := rec.Result.(*experiments.Result)
		if !ok {
			fmt.Fprintf(stderr, "pi2sim: rep %d failed: %s\n", i, rec.Err)
			code = 1
			continue
		}
		var goodput float64
		for _, g := range res.Groups {
			goodput += g.Total()
		}
		qMeans = append(qMeans, res.Sojourn.Mean()*1e3)
		qP99s = append(qP99s, res.Sojourn.Percentile(99)*1e3)
		utils = append(utils, res.Utilization)
		goodputs = append(goodputs, goodput/1e6)
		fmt.Fprintf(stdout, "%d\t%d\t%.2f\t%.2f\t%.3f\t%.3f\n",
			i, rec.Seed, res.Sojourn.Mean()*1e3, res.Sojourn.Percentile(99)*1e3,
			res.Utilization, goodput/1e6)
	}
	m1, s1 := meanStd(qMeans)
	m2, s2 := meanStd(qP99s)
	m3, s3 := meanStd(utils)
	m4, s4 := meanStd(goodputs)
	fmt.Fprintf(stdout, "# aggregate over %d reps (mean ± stddev):\n", len(qMeans))
	fmt.Fprintf(stdout, "# qdelay_mean=%.2f±%.2f ms  qdelay_p99=%.2f±%.2f ms  util=%.3f±%.3f  goodput=%.3f±%.3f Mb/s\n",
		m1, s1, m2, s2, m3, s3, m4, s4)
	return code
}

// meanStd returns the sample mean and (population) standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// report prints the time series, summary block and optional chart.
func report(w io.Writer, res *experiments.Result, series, doPlot bool, label string) {
	if series {
		fmt.Fprintln(w, "time_s\tqdelay_ms\tgoodput_mbps")
		for i := range res.DelaySeries.Values {
			fmt.Fprintf(w, "%.0f\t%.2f\t%.3f\n",
				res.DelaySeries.Times[i].Seconds(),
				res.DelaySeries.Values[i]*1e3,
				res.GoodputSeries.Values[i]/1e6)
		}
	}
	fmt.Fprintf(w, "# %s\n", label)
	fmt.Fprintf(w, "# qdelay: mean=%.2fms p25=%.2fms p99=%.2fms\n",
		res.Sojourn.Mean()*1e3, res.Sojourn.Percentile(25)*1e3, res.Sojourn.Percentile(99)*1e3)
	fmt.Fprintf(w, "# utilization=%.3f dropsAQM=%d dropsOverflow=%d marks=%d\n",
		res.Utilization, res.DropsAQM, res.DropsOverflow, res.Marks)
	for _, g := range res.Groups {
		fmt.Fprintf(w, "# group %s (%s): total=%.3f Mb/s per-flow mean=%.3f Mb/s marks=%d congestion-events=%d retx=%d\n",
			g.Label, g.CC, g.Total()/1e6, g.MeanPerFlow()/1e6, g.Marks, g.CongestionEvents, g.Retransmissions)
	}
	fmt.Fprintf(w, "# classic prob mean=%.4f p99=%.4f; events=%d\n",
		res.ClassicProb.Mean(), res.ClassicProb.Percentile(99), res.Events)
	if doPlot {
		c := plot.Chart{
			Title:  "queue delay, " + label,
			XLabel: "time [s]", YLabel: "queue delay [ms]",
		}
		c.AddTimeSeries("qdelay", &res.DelaySeries, 1e3)
		c.Render(w)
	}
}

// parseRate parses "10M", "2.5G", "400K" or plain bits/s.
func parseRate(s string) (float64, error) {
	mult := 1.0
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1e3, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1e6, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1e9, s[:len(s)-1]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q", s)
	}
	return v * mult, nil
}
