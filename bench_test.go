// Package pi2bench holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (one testing.B benchmark per
// artifact), the ablation benches for the design choices called out in
// DESIGN.md, and micro-benchmarks of the per-packet decision paths.
//
// The figure benchmarks run the corresponding experiment driver in quick
// mode (durations scaled ~5×) and attach the figure's headline numbers as
// custom metrics, so `go test -bench=.` doubles as a compact reproduction
// report. The full-length tables come from `go run ./cmd/pi2bench all`.
package pi2bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/experiments"
	"pi2/internal/ff"
	"pi2/internal/fluid"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

func quickOpts(i int) campaign.Options {
	// Vary the seed per iteration so repeated benchmark iterations are
	// not byte-identical cached work.
	return campaign.Options{Grid: campaign.Grid{Quick: true}, ExecOptions: campaign.ExecOptions{BaseSeed: int64(i + 1)}}
}

// must returns a driver's result, panicking on its failed-cells error.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// --- analytic figures (Appendix B fluid model) ---

// BenchmarkFig4Bode regenerates the Figure 4 Bode margins (PIE tune
// variants over the full load range).
func BenchmarkFig4Bode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := fluid.Figure4(13)
		if len(pts) != 13 {
			b.Fatal("points")
		}
	}
}

// BenchmarkFig5Tune regenerates the Figure 5 tune-vs-√(2p) table.
func BenchmarkFig5Tune(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(fluid.Figure5(49)) != 49 {
			b.Fatal("points")
		}
	}
}

// BenchmarkFig7Bode regenerates the Figure 7 margins (reno pie / reno pi2 /
// scal pi) and reports PI2's gain-margin flatness across the sweep.
func BenchmarkFig7Bode(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		pts := fluid.Figure7(13)
		lo, hi := 1e9, -1e9
		for _, mp := range pts {
			g := mp.ByLine["reno pi2"].GainMarginDB
			if g < lo {
				lo = g
			}
			if g > hi {
				hi = g
			}
		}
		spread = hi - lo
	}
	b.ReportMetric(spread, "gm-spread-dB")
}

// --- simulation figures ---

// BenchmarkFig6VaryingIntensity runs the PI vs PI2 varying-intensity
// comparison (Figure 6) and reports both mean queue delays.
func BenchmarkFig6VaryingIntensity(b *testing.B) {
	var r *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.Fig6(quickOpts(i)))
	}
	b.ReportMetric(r.PI.Sojourn.Mean()*1e3, "pi-meanQ-ms")
	b.ReportMetric(r.PI2.Sojourn.Mean()*1e3, "pi2-meanQ-ms")
}

// BenchmarkFig11TrafficLoads runs the three-load PIE vs PI2 comparison.
func BenchmarkFig11TrafficLoads(b *testing.B) {
	var r *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.Fig11(quickOpts(i)))
	}
	b.ReportMetric(r.Runs["50 TCP"]["pi2"].Sojourn.Mean()*1e3, "pi2-50tcp-meanQ-ms")
	b.ReportMetric(r.Runs["50 TCP"]["pie"].Sojourn.Mean()*1e3, "pie-50tcp-meanQ-ms")
}

// BenchmarkFig12VaryingCapacity runs the capacity-step test and reports the
// post-drop queue peaks (the paper's 510 ms vs 250 ms comparison).
func BenchmarkFig12VaryingCapacity(b *testing.B) {
	var r *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.Fig12(quickOpts(i)))
	}
	b.ReportMetric(r.PeakPIEms, "pie-peak-ms")
	b.ReportMetric(r.PeakPI2ms, "pi2-peak-ms")
}

// BenchmarkFig13VaryingIntensity runs the 10 Mb/s staged-flows comparison.
func BenchmarkFig13VaryingIntensity(b *testing.B) {
	var r *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.Fig13(quickOpts(i)))
	}
	b.ReportMetric(r.PI2.DelaySeries.Max()*1e3, "pi2-maxQ-ms")
}

// BenchmarkFig14DelayCDF runs the 5/20 ms target CDF comparison and reports
// PI2's P99 at the 5 ms target under 20 flows.
func BenchmarkFig14DelayCDF(b *testing.B) {
	var r *experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		r = must(experiments.Fig14(quickOpts(i)))
	}
	for _, c := range r.Cases {
		if c.Target == 5*time.Millisecond && c.Load == "20 TCP" {
			b.ReportMetric(c.PI2.Sojourn.Percentile(99)*1e3, "pi2-p99-ms")
		}
	}
}

// BenchmarkFig15RateBalance runs the headline coexistence cell (40 Mb/s,
// 10 ms, Cubic vs DCTCP) under both AQMs and reports the two ratios.
func BenchmarkFig15RateBalance(b *testing.B) {
	var pie, pi2 experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		pts := must(experiments.CoexistenceSweep(quickOpts(i)))
		for _, p := range pts {
			if p.LinkMbps == 40 && p.RTT == 10*time.Millisecond && p.Pair == "dctcp" {
				if p.AQM == "pie" {
					pie = p
				} else {
					pi2 = p
				}
			}
		}
	}
	b.ReportMetric(pie.Ratio, "pie-ratio")
	b.ReportMetric(pi2.Ratio, "pi2-ratio")
}

// BenchmarkFig16QueueDelay reports the same sweep's queue-delay metric.
func BenchmarkFig16QueueDelay(b *testing.B) {
	var pt experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		pt = sweepCell(quickOpts(i), "pi2", "dctcp")
	}
	b.ReportMetric(pt.QMean*1e3, "qmean-ms")
	b.ReportMetric(pt.QP99*1e3, "qp99-ms")
}

// BenchmarkFig17Probability reports the coupled probabilities of the
// headline cell (the paper's p_s = 2·√p_c relation).
func BenchmarkFig17Probability(b *testing.B) {
	var pt experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		pt = sweepCell(quickOpts(i), "pi2", "dctcp")
	}
	b.ReportMetric(pt.ProbA.Mean*100, "classic-prob-pct")
	b.ReportMetric(pt.ProbB.Mean*100, "scalable-prob-pct")
}

// BenchmarkFig18Utilization reports the utilization quantiles.
func BenchmarkFig18Utilization(b *testing.B) {
	var pt experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		pt = sweepCell(quickOpts(i), "pi2", "dctcp")
	}
	b.ReportMetric(pt.Util.Mean*100, "util-mean-pct")
	b.ReportMetric(pt.Util.P1*100, "util-p1-pct")
}

func sweepCell(o campaign.Options, aqmName, pair string) experiments.SweepPoint {
	pts := must(experiments.CoexistenceSweep(o))
	for _, p := range pts {
		if p.LinkMbps == 40 && p.RTT == 10*time.Millisecond && p.AQM == aqmName && p.Pair == pair {
			return p
		}
	}
	panic("cell not found")
}

// BenchmarkFig19FlowCombos runs the flow-count combination grid and reports
// the worst per-flow imbalance for PI2+DCTCP.
func BenchmarkFig19FlowCombos(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 1
		for _, p := range must(experiments.FlowCombos(quickOpts(i), nil)) {
			if p.AQM != "pi2" || p.Pair != "dctcp" || p.NA == 0 || p.NB == 0 {
				continue
			}
			r := p.RatioPerFlow
			if r < 1 && r > 0 {
				r = 1 / r
			}
			if r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "worst-imbalance")
}

// BenchmarkFig20NormalizedRates reports the P1 normalized rate across the
// combos (how far the slowest flow falls below fair share).
func BenchmarkFig20NormalizedRates(b *testing.B) {
	var p1 float64
	for i := 0; i < b.N; i++ {
		p1 = 1e9
		for _, p := range must(experiments.FlowCombos(quickOpts(i), nil)) {
			if p.AQM != "pi2" || p.Pair != "dctcp" || p.NA == 0 || p.NB == 0 {
				continue
			}
			if v := p.NormB.P1; v > 0 && v < p1 {
				p1 = v
			}
		}
	}
	b.ReportMetric(p1, "min-norm-rate")
}

// BenchmarkTable1Defaults renders the Table 1 parameter table.
func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.PrintTable1(io.Discard)
	}
}

// BenchmarkFCTWorkload runs the web-like short-flow comparison (the
// Section 6 statement that completion times match across PIE/bare-PIE/PI2).
func BenchmarkFCTWorkload(b *testing.B) {
	var r *experiments.FCTResult
	for i := 0; i < b.N; i++ {
		r = must(experiments.FigFCT(quickOpts(i)))
	}
	b.ReportMetric(r.ByAQM["pi2"].Mean*1e3, "pi2-fct-ms")
	b.ReportMetric(r.ByAQM["pie"].Mean*1e3, "pie-fct-ms")
}

// --- ablation benches (design choices from DESIGN.md) ---

// BenchmarkSquareVsDoubleRand ablates the two squaring implementations of
// Section 4 / Figure 8: multiplying p′·p′ (software form) versus comparing
// two random draws (hardware form).
func BenchmarkSquareVsDoubleRand(b *testing.B) {
	q := fakeQueueInfo{}
	for _, tc := range []struct {
		name string
		mult bool
	}{{"double-rand", false}, {"multiply", true}} {
		b.Run(tc.name, func(b *testing.B) {
			q2 := core.New(core.Config{UseMultiply: tc.mult}, rand.New(rand.NewSource(1)))
			warmPI2(q2, 200*time.Millisecond)
			p := packet.NewData(1, 0, packet.MSS, packet.NotECT)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = q2.Enqueue(p, q, 0)
			}
		})
	}
}

// BenchmarkAblationPIEHeuristics compares full PIE against bare-PIE on the
// same workload; the paper saw no difference in any experiment.
func BenchmarkAblationPIEHeuristics(b *testing.B) {
	for _, name := range []string{"pie", "bare-pie"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				factory, _ := experiments.FactoryByName(name, 20*time.Millisecond)
				res := experiments.Run(experiments.Scenario{
					Seed:        int64(i + 1),
					LinkRateBps: 10e6,
					NewAQM:      factory,
					Bulk: []traffic.BulkFlowSpec{
						{CC: "reno", Count: 5, RTT: 100 * time.Millisecond},
					},
					Duration: 30 * time.Second,
					WarmUp:   10 * time.Second,
				})
				mean = res.Sojourn.Mean()
			}
			b.ReportMetric(mean*1e3, "meanQ-ms")
		})
	}
}

// BenchmarkAblationDelayEstimator compares PI2 with direct sojourn
// timestamps (its native design) against Linux-PIE-style departure-rate
// estimation.
func BenchmarkAblationDelayEstimator(b *testing.B) {
	for _, tc := range []struct {
		name string
		est  aqm.DelayEstimator
	}{
		{"sojourn", aqm.EstimateBySojourn},
		{"rate", aqm.EstimateByRate},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				res := experiments.Run(experiments.Scenario{
					Seed:        int64(i + 1),
					LinkRateBps: 10e6,
					NewAQM: func(rng *rand.Rand) aqm.AQM {
						return core.New(core.Config{Estimator: tc.est}, rng)
					},
					Bulk: []traffic.BulkFlowSpec{
						{CC: "reno", Count: 5, RTT: 100 * time.Millisecond},
					},
					Duration: 30 * time.Second,
					WarmUp:   10 * time.Second,
				})
				mean = res.Sojourn.Mean()
			}
			b.ReportMetric(mean*1e3, "meanQ-ms")
		})
	}
}

// BenchmarkAblationCouplingK compares the analytic k = 1.19 of equation
// (14) against the empirically validated k = 2 on the headline coexistence
// cell.
func BenchmarkAblationCouplingK(b *testing.B) {
	for _, tc := range []struct {
		name string
		k    float64
	}{{"k=1.19", 1.19}, {"k=2", 2}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				res := experiments.Run(experiments.Scenario{
					Seed:        int64(i + 1),
					LinkRateBps: 40e6,
					NewAQM: func(rng *rand.Rand) aqm.AQM {
						return core.New(core.Config{K: tc.k}, rng)
					},
					Bulk: []traffic.BulkFlowSpec{
						{CC: "cubic", Count: 1, RTT: 10 * time.Millisecond},
						{CC: "dctcp", Count: 1, RTT: 10 * time.Millisecond},
					},
					Duration: 40 * time.Second,
					WarmUp:   15 * time.Second,
				})
				if d := res.Groups[1].MeanPerFlow(); d > 0 {
					ratio = res.Groups[0].MeanPerFlow() / d
				}
			}
			b.ReportMetric(ratio, "cubic/dctcp")
		})
	}
}

// --- micro-benchmarks of the hot paths ---

type fakeQueueInfo struct{}

func (fakeQueueInfo) BacklogBytes() int                       { return 30000 }
func (fakeQueueInfo) BacklogPackets() int                     { return 20 }
func (fakeQueueInfo) HeadSojourn(time.Duration) time.Duration { return 15 * time.Millisecond }
func (fakeQueueInfo) CapacityBps() float64                    { return 10e6 }

// warmPI2 drives the controller to a nonzero operating point.
func warmPI2(q2 *core.PI2, sojourn time.Duration) {
	var qi aqm.QueueInfo = warmQueue{sojourn: sojourn}
	for i := 0; i < 100; i++ {
		q2.Update(qi, time.Duration(i)*32*time.Millisecond)
	}
}

type warmQueue struct{ sojourn time.Duration }

func (w warmQueue) BacklogBytes() int                       { return 100000 }
func (w warmQueue) BacklogPackets() int                     { return 67 }
func (w warmQueue) HeadSojourn(time.Duration) time.Duration { return w.sojourn }
func (w warmQueue) CapacityBps() float64                    { return 10e6 }

// BenchmarkPI2EnqueueDecision measures the per-packet cost of PI2's
// decision (the paper's "less computationally expensive" claim vs PIE).
func BenchmarkPI2EnqueueDecision(b *testing.B) {
	q2 := core.New(core.Config{}, rand.New(rand.NewSource(1)))
	warmPI2(q2, 30*time.Millisecond)
	p := packet.NewData(1, 0, packet.MSS, packet.NotECT)
	q := fakeQueueInfo{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = q2.Enqueue(p, q, 0)
	}
}

// BenchmarkPI2FFDecideN measures one fast-forward decision call for n = 64
// packets of one codepoint: the classic square (two draws after a first
// hit) and the scalable single draw, against a warmed p′.
func BenchmarkPI2FFDecideN(b *testing.B) {
	for _, c := range []struct {
		name string
		ecn  packet.ECN
	}{{"classic", packet.NotECT}, {"scalable", packet.ECT1}} {
		b.Run(c.name, func(b *testing.B) {
			q2 := core.New(core.Config{}, rand.New(rand.NewSource(1)))
			warmPI2(q2, 30*time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, _ = q2.FFDecideN(c.ecn, 0, 64)
			}
		})
	}
}

// BenchmarkPIEEnqueueDecision measures PIE's drop_early path with all
// heuristics active and the controller warmed past its burst allowance
// (a cold PIE short-circuits to accept, which would flatter it).
func BenchmarkPIEEnqueueDecision(b *testing.B) {
	cfg := aqm.DefaultPIEConfig()
	// Measure the decision with a live probability: sojourn-based delay
	// (the rate estimator has no dequeue feed in a micro-bench, which
	// would leave p at 0 and short-circuit the decision).
	cfg.Estimator = aqm.EstimateBySojourn
	pe := aqm.NewPIE(cfg, rand.New(rand.NewSource(1)))
	var qi aqm.QueueInfo = warmQueue{sojourn: 30 * time.Millisecond}
	for i := 0; i < 100; i++ {
		pe.Update(qi, time.Duration(i)*32*time.Millisecond)
	}
	p := packet.NewData(1, 0, packet.MSS, packet.NotECT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pe.Enqueue(p, qi, 0)
	}
}

// BenchmarkPI2Update measures the periodic control-law update.
func BenchmarkPI2Update(b *testing.B) {
	q2 := core.New(core.Config{}, rand.New(rand.NewSource(1)))
	var qi aqm.QueueInfo = warmQueue{sojourn: 25 * time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q2.Update(qi, time.Duration(i)*32*time.Millisecond)
	}
}

// BenchmarkPIEUpdate measures PIE's update with auto-tune and caps.
func BenchmarkPIEUpdate(b *testing.B) {
	cfg := aqm.DefaultPIEConfig()
	cfg.Estimator = aqm.EstimateBySojourn
	pe := aqm.NewPIE(cfg, rand.New(rand.NewSource(1)))
	var qi aqm.QueueInfo = warmQueue{sojourn: 25 * time.Millisecond}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe.Update(qi, time.Duration(i)*32*time.Millisecond)
	}
}

// BenchmarkSimulatorEventLoop measures raw event throughput of the engine.
func BenchmarkSimulatorEventLoop(b *testing.B) {
	s := sim.New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	s.Run()
}

// BenchmarkLinkPacketPath measures the full enqueue→serialize→deliver path
// with the pooled packet lifecycle (the deliver callback is the terminal
// owner and recycles each packet).
func BenchmarkLinkPacketPath(b *testing.B) {
	s := sim.New(1)
	pool := s.PacketPool()
	delivered := 0
	l := link.New(s, link.Config{RateBps: 1e12}, func(p *packet.Packet) {
		delivered++
		pool.Release(p)
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Enqueue(pool.NewData(1, int64(i), packet.MSS, packet.NotECT))
		if i%64 == 0 {
			s.RunUntil(s.Now() + time.Microsecond)
		}
	}
	s.Run()
	if delivered == 0 {
		b.Fatal("nothing delivered")
	}
}

// BenchmarkDelayHistogramAdd prices one per-packet observation into the
// heavy tier's constant-memory sojourn collector: exact moments and
// extremes, plus the bin found from the geometry's shared edge table.
// Delays are log-uniform over 1 µs to 1 s so every bin path is taken.
func BenchmarkDelayHistogramAdd(b *testing.B) {
	h := stats.NewDelayHistogram()
	rng := rand.New(rand.NewSource(1))
	delays := make([]float64, 1024)
	for i := range delays {
		delays[i] = math.Exp(math.Log(1e-6) + rng.Float64()*math.Log(1e6))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(delays[i%len(delays)])
	}
}

// benchNop is package-level so scheduling it captures nothing.
func benchNop() {}

// BenchmarkSchedulerChurn pins the slab scheduler's zero-alloc budget on the
// timer mix the transports generate per ACK, among ~1k pending far-future
// retransmission timers (one per flow): one event fires, one delayed-ACK
// timer is stopped and replaced, and one flow's retransmission timer is
// re-armed in place.
func BenchmarkSchedulerChurn(b *testing.B) {
	s := sim.New(1)
	rto := make([]sim.Timer, 1024)
	for i := range rto {
		rto[i] = s.After(200*time.Millisecond+time.Duration(i)*time.Microsecond, benchNop)
	}
	delack := s.After(40*time.Millisecond, benchNop)
	perAck := func(i int) {
		s.After(time.Microsecond, benchNop)
		s.Step()
		delack.Stop()
		delack = s.After(40*time.Millisecond, benchNop)
		rto[i%len(rto)].Reset(s.Now() + 200*time.Millisecond)
	}
	// Warm the slab, heap and free list past the working set.
	for i := 0; i < 64; i++ {
		perAck(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perAck(i)
	}
}

// BenchmarkLaneHold pins the lane path's cost and zero-alloc budget on the
// per-packet event pair of a busy cell, among 1024 pending far-future timers
// (one retransmission timer per flow): a serializer lane whose completion
// re-arms itself, and a shared 10 ms delay lane holding ~1.7k in-flight ACKs
// of which only the head is in the heap. One op is one packet: one txDone
// and, in steady state, one ACK arrival.
func BenchmarkLaneHold(b *testing.B) {
	const (
		txTime = 6 * time.Microsecond // 1500 B at 2 Gb/s
		rtt    = 10 * time.Millisecond
	)
	s := sim.New(1)
	for i := 0; i < 1024; i++ {
		s.After(1000*time.Hour+time.Duration(i)*time.Microsecond, benchNop)
	}
	tx, ack := s.NewLane(), s.Lane(rtt)
	left := 0
	var txDone sim.Event
	txDone = func() {
		ack.After(rtt, benchNop)
		if left--; left > 0 {
			tx.After(txTime, txDone)
		}
	}
	serve := func(n int) {
		left = n
		tx.After(txTime, txDone)
		s.RunUntil(s.Now() + time.Duration(n)*txTime)
	}
	serve(4096) // fill the pipe and grow its ring past the working set
	b.ReportAllocs()
	b.ResetTimer()
	serve(b.N)
	b.StopTimer()
	if got := s.Pending(); got < 1024+1000 {
		b.Fatalf("%d events pending, want the 1024 timers plus a full pipe", got)
	}
}

// BenchmarkManyLanes pins the scheduler's cost when lanes are many: 256
// shared lanes of distinct constant delays (a cell with one distinct RTT per
// flow group) each keep 8 events in flight, among 1024 pending far-future
// timers. Every lane event re-sends on its own lane, so the pipes stay full.
// One op is one lane event.
func BenchmarkManyLanes(b *testing.B) {
	const (
		lanes    = 256
		inFlight = 8
	)
	s := sim.New(1)
	for i := 0; i < 1024; i++ {
		s.After(1000*time.Hour+time.Duration(i)*time.Microsecond, benchNop)
	}
	for i := 0; i < lanes; i++ {
		d := time.Millisecond + time.Duration(i)*37*time.Microsecond
		ln := s.Lane(d)
		var resend sim.Event
		resend = func() { ln.After(d, resend) }
		for k := 0; k < inFlight; k++ {
			s.At(time.Duration(k)*d/inFlight, func() { ln.After(d, resend) })
		}
	}
	s.RunUntil(time.Second) // start every pipe and grow its ring
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	b.StopTimer()
	if got := s.Pending(); got != 1024+lanes*inFlight {
		b.Fatalf("%d events pending, want the 1024 timers plus %d in flight", got, lanes*inFlight)
	}
}

// BenchmarkPacketRecycle pins the packet free list's zero-alloc budget on a
// steady-state get→release cycle (one data + one ACK per op, as a segment
// exchange produces).
func BenchmarkPacketRecycle(b *testing.B) {
	s := sim.New(1)
	pool := s.PacketPool()
	// Seed the free list.
	pool.Release(pool.NewData(1, 0, packet.MSS, packet.ECT0))
	pool.Release(pool.NewAck(1, 0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := pool.NewData(1, int64(i), packet.MSS, packet.ECT0)
		a := pool.NewAck(1, int64(i))
		pool.Release(d)
		pool.Release(a)
	}
}

// BenchmarkEndToEndSimSecond measures how fast the full stack simulates one
// virtual second of the Figure 11a scenario (5 Reno flows at 10 Mb/s).
func BenchmarkEndToEndSimSecond(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(int64(i + 1))
		d := link.NewDispatcher()
		l := link.New(s, link.Config{
			RateBps: 10e6,
			AQM:     core.New(core.Config{}, s.RNG()),
		}, d.Deliver)
		for id := 1; id <= 5; id++ {
			ep := tcp.New(s, l, tcp.Config{ID: id, CC: tcp.Reno{}, BaseRTT: 100 * time.Millisecond})
			d.Register(id, ep.DeliverData)
			ep.Start()
		}
		s.RunUntil(time.Second)
	}
}

// BenchmarkManyFlows measures one virtual second of the heavy tier's
// 1000-flow cell (even reno/cubic/dctcp mix, fair share 2 Mb/s per flow,
// PI2 bottleneck, constant-memory histogram collector). Setup and a warm-up
// second run outside the timer, so allocs/op and bytes/op capture the
// steady-state per-sim-second cost — the budget BENCH_hotpath.json gates.
func BenchmarkManyFlows(b *testing.B) {
	const flows = 1000
	s := sim.New(1)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		RateBps: 2e6 * flows,
		AQM:     core.New(core.Config{}, s.RNG()),
		Sojourn: stats.NewDelayHistogram(),
	}, d.Deliver)
	for id := 1; id <= flows; id++ {
		var cc tcp.CongestionControl
		mode := tcp.ECNOff
		switch id % 3 {
		case 0:
			cc = tcp.Reno{}
		case 1:
			cc = &tcp.Cubic{}
		case 2:
			cc = &tcp.DCTCP{}
			mode = tcp.ECNScalable
		}
		ep := tcp.New(s, l, tcp.Config{ID: id, CC: cc, ECN: mode, BaseRTT: 10 * time.Millisecond})
		d.Register(id, ep.DeliverData)
		ep.Start()
	}
	s.RunUntil(time.Second) // warm up: slow start, queue fill, pool growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunUntil(time.Duration(i+2) * time.Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Processed())/float64(b.N), "events/op")
}

// BenchmarkFlowSetUp measures what a heavy cell pays per flow before its
// first event: building a 5 000-flow tcp.Group of Reno, Cubic and DCTCP
// flows in turn, registering it with a dispatcher and starting every flow
// (its IW10 burst goes to a sink that recycles the packets). One op is one
// whole set-up on a fresh simulator; BENCH_hotpath.json budgets its allocs
// (a constant per group, none per flow) and bytes.
func BenchmarkFlowSetUp(b *testing.B) {
	const flows = 5000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		pool := s.PacketPool()
		g, err := tcp.NewGroup(s, func(p *packet.Packet) { pool.Release(p) },
			tcp.Config{ID: 1, BaseRTT: 10 * time.Millisecond}, flows, 1, "", "reno", "cubic", "dctcp")
		if err != nil {
			b.Fatal(err)
		}
		d := link.NewDispatcher()
		d.Reserve(flows + 1)
		deliver := g.DeliverData
		for j := range g.Flows {
			d.Register(g.Flows[j].ID(), deliver)
			g.Flows[j].Start()
		}
	}
}

// BenchmarkWebFlowLaunch measures what one short flow costs to set up, as
// traffic.StartWeb launches each: a group of one Reno flow with its
// completion callback, registered with a dispatcher and started (its first
// window goes to a sink that recycles the packets). One op is one launch on
// a shared simulator; BENCH_hotpath.json budgets its allocs (the group in one
// allocation, its ACK callback, the delivery callback and the completion
// closure) and bytes.
func BenchmarkWebFlowLaunch(b *testing.B) {
	s := sim.New(1)
	pool := s.PacketPool()
	sink := func(p *packet.Packet) { pool.Release(p) }
	d := link.NewDispatcher()
	d.Reserve(b.N + 1)
	b.ReportAllocs()
	for i := 1; i <= b.N; i++ {
		id := i
		g, err := tcp.NewGroup(s, sink, tcp.Config{
			ID:         id,
			BaseRTT:    20 * time.Millisecond,
			FlowSegs:   12,
			OnComplete: func(time.Duration) { d.Unregister(id) },
		}, 1, 1, "", "reno")
		if err != nil {
			b.Fatal(err)
		}
		d.Register(id, g.DeliverData)
		g.Flows[0].Start()
	}
}

// BenchmarkShardedManyFlows is the sharded twin of BenchmarkManyFlows: the
// same 1000-flow PI2 cell partitioned across 3 endpoint domains plus a link
// domain on the conservative-PDES coordinator (10 ms RTT splits into 5 ms
// wires; lookahead 5 ms). One op is one virtual second after warm-up. On a
// single core this pays the window/merge overhead; on a multi-core runner
// the domains execute in parallel and ns/op drops below BenchmarkManyFlows
// (the ISSUE-6 target: ≥3x on 8 cores at the 5000-flow scale).
func BenchmarkShardedManyFlows(b *testing.B) {
	const (
		flows   = 1000
		domains = 4 // one link domain + three endpoint domains
		oneWay  = 5 * time.Millisecond
	)
	co := sim.NewCoordinator(1, domains, oneWay)
	linkDom := co.Domain(0)
	type route struct {
		dom  int
		hand func(*packet.Packet)
	}
	routes := make([]route, flows+1)
	l := link.New(linkDom.Sim(), link.Config{
		RateBps: 2e6 * flows,
		AQM:     core.New(core.Config{}, linkDom.Sim().RNG()),
		Sojourn: stats.NewDelayHistogram(),
	}, func(p *packet.Packet) {
		r := routes[p.FlowID]
		linkDom.Send(r.dom, oneWay, p, r.hand)
	})
	linkEnq := l.Enqueue // hoisted: a per-Send method value would allocate
	for id := 1; id <= flows; id++ {
		var cc tcp.CongestionControl
		mode := tcp.ECNOff
		switch id % 3 {
		case 0:
			cc = tcp.Reno{}
		case 1:
			cc = &tcp.Cubic{}
		case 2:
			cc = &tcp.DCTCP{}
			mode = tcp.ECNScalable
		}
		dom := co.Domain(1 + id%(domains-1))
		enq := func(p *packet.Packet) { dom.Send(0, oneWay, p, linkEnq) }
		ep := tcp.NewWithEnqueuer(dom.Sim(), enq, tcp.Config{
			ID: id, CC: cc, ECN: mode, BaseRTT: 10 * time.Millisecond,
			SplitPropagation: true,
		})
		routes[id] = route{dom: dom.ID(), hand: ep.DeliverData}
		ep.Start()
	}
	co.RunUntil(time.Second) // warm up: slow start, queue fill, pool growth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co.RunUntil(time.Duration(i+2) * time.Second)
	}
	b.StopTimer()
	b.ReportMetric(float64(co.Processed())/float64(b.N), "events/op")
	if msg := l.Audit().Err("bottleneck link"); msg != "" {
		b.Fatal(msg)
	}
}

// BenchmarkCoordinatorOverhead pins the shards=1 degeneracy: a one-domain
// coordinator must add nothing to the raw event loop (no goroutines, no
// windows — RunUntil delegates straight to the slab scheduler), so its
// ns/op and allocs/op budgets match BenchmarkSimulatorEventLoop's.
func BenchmarkCoordinatorOverhead(b *testing.B) {
	co := sim.NewCoordinator(1, 1, 0)
	s := co.Domain(0).Sim()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(0, tick)
	b.ReportAllocs()
	b.ResetTimer()
	co.RunUntil(time.Duration(b.N+1) * time.Microsecond)
}

// BenchmarkAblationSACK compares NewReno and SACK recovery for a Classic
// flow sharing a PI2 queue with DCTCP — loss-recovery efficiency is one of
// the two reasons the measured coexistence ratio sits below 1 (see
// EXPERIMENTS.md deviation 3).
func BenchmarkAblationSACK(b *testing.B) {
	for _, tc := range []struct {
		name string
		sack bool
	}{{"newreno", false}, {"sack", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				s := sim.New(int64(i + 1))
				d := link.NewDispatcher()
				l := link.New(s, link.Config{
					RateBps: 40e6,
					AQM:     core.New(core.Config{}, s.RNG()),
				}, d.Deliver)
				cubic := tcp.New(s, l, tcp.Config{
					ID: 1, CC: &tcp.Cubic{}, BaseRTT: 10 * time.Millisecond, SACK: tc.sack,
				})
				dctcp := tcp.New(s, l, tcp.Config{
					ID: 2, CC: &tcp.DCTCP{}, ECN: tcp.ECNScalable, BaseRTT: 10 * time.Millisecond,
				})
				d.Register(1, cubic.DeliverData)
				d.Register(2, dctcp.DeliverData)
				cubic.Start()
				dctcp.Start()
				s.RunUntil(15 * time.Second)
				cubic.Goodput.Reset(s.Now())
				dctcp.Goodput.Reset(s.Now())
				s.RunUntil(45 * time.Second)
				if r := dctcp.Goodput.RateBps(s.Now()); r > 0 {
					ratio = cubic.Goodput.RateBps(s.Now()) / r
				}
			}
			b.ReportMetric(ratio, "cubic/dctcp")
		})
	}
}

// BenchmarkAblationDelayedAcks compares per-packet ACKs against stretch
// ACKs (every 2nd/4th segment) on the Figure 11a load: testbed stacks ack
// every other segment, which halves the Reno growth rate and slightly
// lowers the steady-state window constant.
func BenchmarkAblationDelayedAcks(b *testing.B) {
	for _, every := range []int{1, 2, 4} {
		every := every
		b.Run(fmt.Sprintf("ackevery=%d", every), func(b *testing.B) {
			var meanQ float64
			for i := 0; i < b.N; i++ {
				s := sim.New(int64(i + 1))
				d := link.NewDispatcher()
				l := link.New(s, link.Config{
					RateBps: 10e6,
					AQM:     core.New(core.Config{}, s.RNG()),
				}, d.Deliver)
				for id := 1; id <= 5; id++ {
					ep := tcp.New(s, l, tcp.Config{
						ID: id, CC: tcp.Reno{}, BaseRTT: 100 * time.Millisecond,
						AckEvery: every,
					})
					d.Register(id, ep.DeliverData)
					ep.Start()
				}
				s.RunUntil(30 * time.Second)
				meanQ = l.Sojourn.Mean()
			}
			b.ReportMetric(meanQ*1e3, "meanQ-ms")
		})
	}
}

// BenchmarkAblationHyStart measures slow-start overshoot with and without
// the HyStart exit for a single Cubic flow into a PI2 queue.
func BenchmarkAblationHyStart(b *testing.B) {
	for _, tc := range []struct {
		name    string
		disable bool
	}{{"hystart", false}, {"classic-ss", true}} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				s := sim.New(int64(i + 1))
				d := link.NewDispatcher()
				l := link.New(s, link.Config{
					RateBps: 40e6,
					AQM:     core.New(core.Config{}, s.RNG()),
				}, d.Deliver)
				ep := tcp.New(s, l, tcp.Config{
					ID: 1, CC: &tcp.Cubic{DisableHyStart: tc.disable},
					BaseRTT: 20 * time.Millisecond,
				})
				d.Register(1, ep.DeliverData)
				ep.Start()
				peak = 0
				probe := s.Every(10*time.Millisecond, func() {
					if q := l.QueueDelayNow().Seconds(); q > peak {
						peak = q
					}
				})
				s.RunUntil(5 * time.Second)
				probe.Stop()
			}
			b.ReportMetric(peak*1e3, "peakQ-ms")
		})
	}
}

// BenchmarkDualQExtension runs the DualPI2 comparison (single coupled queue
// vs dual queue) and reports the L-queue latency advantage.
func BenchmarkDualQExtension(b *testing.B) {
	var r *experiments.DualQResult
	for i := 0; i < b.N; i++ {
		r = must(experiments.DualQ(quickOpts(i), 1, 1))
	}
	b.ReportMetric(r.Single.LDelayMs.Mean, "single-L-ms")
	b.ReportMetric(r.Dual.LDelayMs.Mean, "dual-L-ms")
	b.ReportMetric(r.Dual.Ratio, "dual-ratio")
}

// BenchmarkCampaignParallel measures the campaign engine's run-level
// parallelism on a 16-cell matrix of independent simulations (the quick
// coexistence grid's shape). Each sub-benchmark reports simulator events
// per wall-clock second; on a multi-core machine jobs=8 should approach
// an 8x events/sec advantage over jobs=1, with byte-identical results.
func BenchmarkCampaignParallel(b *testing.B) {
	matrix := func(baseSeed int64) []campaign.Task {
		var tasks []campaign.Task
		for _, linkMbps := range []float64{4, 10, 20, 40} {
			for _, rtt := range []time.Duration{5 * time.Millisecond, 10 * time.Millisecond,
				20 * time.Millisecond, 50 * time.Millisecond} {
				linkMbps, rtt := linkMbps, rtt
				tasks = append(tasks, campaign.Task{
					Name:      "bench-cell",
					SeedIndex: len(tasks),
					Run: func(tc *campaign.TaskCtx) any {
						return experiments.Run(experiments.Scenario{
							Seed:        tc.Seed,
							LinkRateBps: linkMbps * 1e6,
							NewAQM: func(rng *rand.Rand) aqm.AQM {
								return core.New(core.Config{}, rng)
							},
							Bulk: []traffic.BulkFlowSpec{
								{CC: "cubic", Count: 1, RTT: rtt, Label: "A"},
								{CC: "dctcp", Count: 1, RTT: rtt, Label: "B"},
							},
							Duration: 10 * time.Second,
							WarmUp:   4 * time.Second,
						})
					},
				})
			}
		}
		return tasks
	}
	for _, jobs := range []int{1, 8} {
		jobs := jobs
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			var events uint64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				recs := campaign.Execute(matrix(int64(i+1)),
					campaign.ExecOptions{Jobs: jobs, BaseSeed: int64(i + 1)})
				for _, rec := range recs {
					events += rec.Events
				}
			}
			elapsed := time.Since(start).Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(events)/elapsed, "events/s")
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
		})
	}
}

// BenchmarkPragueAlphaUpdate pins the per-ACK cost of Prague's congestion
// control: observation-window accounting, the EWMA close with a marked-
// window reduction, and the RTT-independence-scaled increase. The ACK
// stream closes a window every 20 ACKs with a mark every 16, so the bench
// exercises accumulate, close-with-cut and close-clean paths together.
// Budget: zero allocations (BENCH_hotpath.json).
func BenchmarkPragueAlphaUpdate(b *testing.B) {
	p := &tcp.Prague{}
	s := &tcp.State{Cwnd: 20, Ssthresh: 10, MinCwnd: 2}
	p.Init(s)
	s.SRTT = 10 * time.Millisecond
	var una, nxt int64
	tcp.BindSeq(p, &una, &nxt)
	nxt = 20
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		una++
		if una%20 == 0 {
			nxt += 20
		}
		p.OnAck(s, 1, i%16 == 0, time.Duration(i)*time.Millisecond)
	}
	if s.Cwnd < tcp.PragueMinCwnd {
		b.Fatal("cwnd under floor")
	}
}

// BenchmarkECNMarkPath is BenchmarkLinkPacketPath with every ECT(1) packet
// CE-marked at enqueue: the delta over the plain path is the marking cost
// itself — the step decision, the ECN rewrite and the per-flow mark
// accounting in the link auditor. Budget: zero allocations (the auditor's
// per-flow map is warmed before the timer starts).
func BenchmarkECNMarkPath(b *testing.B) {
	s := sim.New(1)
	pool := s.PacketPool()
	delivered := 0
	l := link.New(s, link.Config{
		RateBps: 1e12,
		AQM: aqm.NewStepMark(aqm.StepMarkConfig{
			Threshold: time.Nanosecond,
			Estimator: aqm.EstimateByCapacity,
		}),
	}, func(p *packet.Packet) {
		delivered++
		pool.Release(p)
	})
	// Warm the auditor's lazy per-flow mark map off the clock.
	for i := 0; i < 64; i++ {
		l.Enqueue(pool.NewData(1, int64(i), packet.MSS, packet.ECT1))
	}
	s.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Enqueue(pool.NewData(1, int64(64+i), packet.MSS, packet.ECT1))
		if i%64 == 0 {
			s.RunUntil(s.Now() + time.Microsecond)
		}
	}
	s.Run()
	if delivered == 0 || l.Marks() == 0 {
		b.Fatalf("mark path not exercised: delivered=%d marks=%d", delivered, l.Marks())
	}
}

// BenchmarkFastForwardEpoch measures one analytic fast-forward epoch on the
// heavy tier's regime: a quiescent 120-flow PI2 cell advanced one virtual
// second per op by the hybrid engine (cwnd stepping, fluid queue, RNG-exact
// mark/drop draws, time-shift commit). The packet-mode interludes needed to
// re-establish quiescence after a stay-band exit run outside the timer, so
// ns/op and allocs/op are the epoch path alone — the budget
// BENCH_hotpath.json gates next to its packet-mode twin BenchmarkManyFlows.
// ns/virtual_pkt divides the timed epoch work by the virtual packets it
// decided: the engine's per-packet cost.
func BenchmarkFastForwardEpoch(b *testing.B) { benchFFEpoch(b, 120) }

// BenchmarkFastForwardEpoch2400 is BenchmarkFastForwardEpoch at 2 400
// flows, above the size at which the engine steps the windows on a helper
// goroutine when GOMAXPROCS > 1: the pipelined epoch must stay zero-alloc
// too. BenchmarkEpochCrossover in internal/ff compares the two modes.
func BenchmarkFastForwardEpoch2400(b *testing.B) { benchFFEpoch(b, 2400) }

func benchFFEpoch(b *testing.B, flows int) {
	s := sim.New(1)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		RateBps: 2e6 * float64(flows),
		AQM:     core.New(core.Config{}, s.RNG()),
		Sojourn: stats.NewDelayHistogram(),
	}, d.Deliver)
	eps := make([]*tcp.Endpoint, 0, flows)
	for id := 1; id <= flows; id++ {
		var cc tcp.CongestionControl
		mode := tcp.ECNOff
		switch id % 3 {
		case 0:
			cc = tcp.Reno{}
		case 1:
			cc = &tcp.Cubic{}
		case 2:
			cc = &tcp.DCTCP{}
			mode = tcp.ECNScalable
		}
		ep := tcp.New(s, l, tcp.Config{ID: id, CC: cc, ECN: mode, BaseRTT: 10 * time.Millisecond})
		d.Register(id, ep.DeliverData)
		ep.Start()
		eps = append(eps, ep)
	}
	eng, ok := ff.New(s, l, eps)
	if !ok {
		b.Fatal("PI2 cell must support fast-forward")
	}
	s.RunUntil(2 * time.Second)
	for i := 0; i < 600 && !eng.Quiescent(); i++ {
		s.RunUntil(s.Now() + 50*time.Millisecond)
	}
	if !eng.Quiescent() {
		b.Fatal("cell never became quiescent")
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ffTime time.Duration
	for i := 0; i < b.N; i++ {
		adv := eng.TryAdvance(s.Now() + time.Second)
		ffTime += adv
		if adv == 0 {
			b.StopTimer()
			for j := 0; j < 600 && !eng.Quiescent(); j++ {
				s.RunUntil(s.Now() + 50*time.Millisecond)
			}
			b.StartTimer()
		}
	}
	b.StopTimer()
	b.ReportMetric(ffTime.Seconds()/float64(b.N), "sim_s/op")
	b.ReportMetric(float64(eng.VirtualPkts)/float64(b.N), "virtual_pkts/op")
	if eng.VirtualPkts > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(eng.VirtualPkts), "ns/virtual_pkt")
	}
}

// BenchmarkFastForwardTwin runs the same 60-flow heavy-style cell through
// the full scenario runner in packet mode and in hybrid fast-forward mode —
// the wall-clock ratio between the two sub-benchmarks is the engine's
// end-to-end speedup on a quiescent steady state (the tentpole claim;
// CHANGES.md records the 5000-flow figure from `pi2bench -ff heavy`).
func BenchmarkFastForwardTwin(b *testing.B) {
	cell := func(ffOn bool, seed int64) experiments.Scenario {
		factory, _ := experiments.FactoryByName("pi2", 0)
		return experiments.Scenario{
			Seed:        seed,
			FastForward: ffOn,
			LinkRateBps: 2e6 * 60,
			NewAQM:      factory,
			Bulk: []traffic.BulkFlowSpec{
				{CC: "reno", Count: 20, RTT: 10 * time.Millisecond, Label: "reno"},
				{CC: "cubic", Count: 20, RTT: 10 * time.Millisecond, Label: "cubic"},
				{CC: "dctcp", Count: 20, RTT: 10 * time.Millisecond, Label: "dctcp"},
			},
			Duration: 8 * time.Second,
			WarmUp:   3200 * time.Millisecond,
		}
	}
	for _, mode := range []struct {
		name string
		ff   bool
	}{{"packet", false}, {"ff", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var epochs, ffSimMs float64
			for i := 0; i < b.N; i++ {
				res := experiments.Run(cell(mode.ff, int64(i+1)))
				if res.Utilization < 0.9 {
					b.Fatalf("cell underutilized: %.3f", res.Utilization)
				}
				epochs += float64(res.FFEpochs)
				ffSimMs += res.FFTime.Seconds() * 1e3
			}
			b.ReportMetric(epochs/float64(b.N), "ff_epochs/op")
			b.ReportMetric(ffSimMs/float64(b.N), "ff_sim_ms/op")
		})
	}
}
