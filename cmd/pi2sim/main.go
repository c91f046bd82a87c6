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
// aggregates are printed instead of the single-run report.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/experiments"
	"pi2/internal/plot"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

func main() {
	var (
		aqmName  = flag.String("aqm", "pi2", "AQM: pi2, pie, bare-pie, pi, red, codel, taildrop")
		linkStr  = flag.String("link", "10M", "bottleneck rate in bits/s (suffix K/M/G)")
		rtt      = flag.Duration("rtt", 100*time.Millisecond, "base RTT")
		flows    = flag.Int("flows", 5, "number of flows in the first group")
		cc       = flag.String("cc", "reno", "congestion control of the first group")
		flows2   = flag.Int("flows2", 0, "number of flows in the second group")
		cc2      = flag.String("cc2", "dctcp", "congestion control of the second group")
		udp      = flag.Float64("udp", 0, "additional unresponsive UDP load in bits/s")
		dur      = flag.Duration("dur", 100*time.Second, "simulated duration")
		warm     = flag.Duration("warmup", 0, "stats warm-up (default dur/4)")
		target   = flag.Duration("target", 20*time.Millisecond, "AQM target delay")
		seed     = flag.Int64("seed", 1, "random seed")
		series   = flag.Bool("series", true, "print the 1 s time series")
		sack     = flag.Bool("sack", false, "enable SACK loss recovery on all flows")
		ackEvery = flag.Int("ackevery", 1, "delayed/stretch ACKs: acknowledge every Nth segment")
		buffer   = flag.Int("buffer", 0, "bottleneck buffer in packets (default 40000)")
		doPlot   = flag.Bool("plot", false, "render an ASCII chart of the queue-delay series")
		config   = flag.String("config", "", "load the scenario from a JSON file instead of flags")
		reps     = flag.Int("reps", 1, "replications under derived seeds (aggregate report when > 1)")
		jobs     = flag.Int("jobs", 1, "parallel replications")
	)
	flag.Parse()

	if *config != "" {
		f, err := os.Open(*config)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pi2sim:", err)
			os.Exit(2)
		}
		sc, err := experiments.LoadScenario(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pi2sim:", err)
			os.Exit(2)
		}
		if *reps > 1 {
			replicate(sc, *reps, *jobs, "config:"+*config)
			return
		}
		report(experiments.Run(sc), *series, *doPlot, "config:"+*config, sc.LinkRateBps)
		return
	}
	rate, err := parseRate(*linkStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pi2sim:", err)
		os.Exit(2)
	}
	factory, ok := experiments.FactoryByName(*aqmName, *target)
	if !ok {
		fmt.Fprintf(os.Stderr, "pi2sim: unknown AQM %q\n", *aqmName)
		os.Exit(2)
	}
	if *warm == 0 {
		*warm = *dur / 4
	}

	sc := experiments.Scenario{
		Seed:        *seed,
		LinkRateBps: rate,
		NewAQM:      factory,
		Duration:    *dur,
		WarmUp:      *warm,
	}
	sc.BufferPackets = *buffer
	sc.SACK = *sack
	sc.AckEvery = *ackEvery
	if *flows > 0 {
		sc.Bulk = append(sc.Bulk, traffic.BulkFlowSpec{CC: *cc, Count: *flows, RTT: *rtt, Label: "group1"})
	}
	if *flows2 > 0 {
		sc.Bulk = append(sc.Bulk, traffic.BulkFlowSpec{CC: *cc2, Count: *flows2, RTT: *rtt, Label: "group2"})
	}
	for _, b := range sc.Bulk {
		if _, _, err := tcp.NewCC(b.CC); err != nil {
			fmt.Fprintln(os.Stderr, "pi2sim:", err)
			os.Exit(2)
		}
	}
	if *udp > 0 {
		sc.UDP = []traffic.UDPSpec{{RateBps: *udp}}
	}

	label := fmt.Sprintf("aqm=%s link=%.0f rtt=%v target=%v dur=%v", *aqmName, rate, *rtt, *target, *dur)
	if *reps > 1 {
		replicate(sc, *reps, *jobs, label)
		return
	}
	report(experiments.Run(sc), *series, *doPlot, label, rate)
}

// replicate runs the scenario under reps derived seeds on a jobs-wide pool
// and prints per-replication summaries plus mean ± stddev aggregates.
func replicate(sc experiments.Scenario, reps, jobs int, label string) {
	base := sc.Seed
	if base == 0 {
		base = 1
	}
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

	fmt.Printf("# %s reps=%d jobs=%d base_seed=%d\n", label, reps, jobs, base)
	fmt.Println("rep\tseed\tqdelay_mean_ms\tqdelay_p99_ms\tutil\tgoodput_mbps")
	var qMeans, qP99s, utils, goodputs []float64
	for i, rec := range recs {
		res, ok := rec.Result.(*experiments.Result)
		if !ok {
			fmt.Fprintf(os.Stderr, "pi2sim: rep %d failed: %s\n", i, rec.Err)
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
		fmt.Printf("%d\t%d\t%.2f\t%.2f\t%.3f\t%.3f\n",
			i, rec.Seed, res.Sojourn.Mean()*1e3, res.Sojourn.Percentile(99)*1e3,
			res.Utilization, goodput/1e6)
	}
	m1, s1 := meanStd(qMeans)
	m2, s2 := meanStd(qP99s)
	m3, s3 := meanStd(utils)
	m4, s4 := meanStd(goodputs)
	fmt.Printf("# aggregate over %d reps (mean ± stddev):\n", len(qMeans))
	fmt.Printf("# qdelay_mean=%.2f±%.2f ms  qdelay_p99=%.2f±%.2f ms  util=%.3f±%.3f  goodput=%.3f±%.3f Mb/s\n",
		m1, s1, m2, s2, m3, s3, m4, s4)
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
func report(res *experiments.Result, series, doPlot bool, label string, rateBps float64) {
	if series {
		fmt.Println("time_s\tqdelay_ms\tgoodput_mbps")
		for i := range res.DelaySeries.Values {
			fmt.Printf("%.0f\t%.2f\t%.3f\n",
				res.DelaySeries.Times[i].Seconds(),
				res.DelaySeries.Values[i]*1e3,
				res.GoodputSeries.Values[i]/1e6)
		}
	}
	fmt.Printf("# %s\n", label)
	fmt.Printf("# qdelay: mean=%.2fms p25=%.2fms p99=%.2fms\n",
		res.Sojourn.Mean()*1e3, res.Sojourn.Percentile(25)*1e3, res.Sojourn.Percentile(99)*1e3)
	fmt.Printf("# utilization=%.3f dropsAQM=%d dropsOverflow=%d marks=%d\n",
		res.Utilization, res.DropsAQM, res.DropsOverflow, res.Marks)
	for _, g := range res.Groups {
		fmt.Printf("# group %s (%s): total=%.3f Mb/s per-flow mean=%.3f Mb/s marks=%d congestion-events=%d retx=%d\n",
			g.Label, g.CC, g.Total()/1e6, g.MeanPerFlow()/1e6, g.Marks, g.CongestionEvents, g.Retransmissions)
	}
	fmt.Printf("# classic prob mean=%.4f p99=%.4f; events=%d\n",
		res.ClassicProb.Mean(), res.ClassicProb.Percentile(99), res.Events)
	if doPlot {
		c := plot.Chart{
			Title:  "queue delay, " + label,
			XLabel: "time [s]", YLabel: "queue delay [ms]",
		}
		c.AddTimeSeries("qdelay", &res.DelaySeries, 1e3)
		c.Render(os.Stdout)
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
