package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/experiments"
	"pi2/internal/ff"
	"pi2/internal/golden"
	"pi2/internal/link"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// outDir holds what a layer pass leaves behind: trace.json, CPU profiles and
// a scratch journal. It is relative to the bench directory, the working
// directory of `go run -C bench .` and of `go test`.
const outDir = "out"

// layerPass measures every per-layer metric in BENCHMARK.json. It is one
// fixed program — the same whichever --workload names the run — in three
// parts: probes (tight loops over one layer's public API), traced mirror
// cells (spans around the two boundaries a caller can interpose on), and CPU
// profiles bucketed by package. Production cells are run beside the mirrors
// so the trace can be held to the program the end-to-end numbers come from.
// End-to-end metrics are never taken from this pass.
func layerPass(sc scale, seed int64) (result, []string) {
	lp := &pass{sc: sc, seed: seed, metrics: map[string]metric{}}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{Attempted: 1, Failed: 1}, []string{err.Error()}
	}
	for _, stage := range []struct {
		name string
		run  func()
	}{
		{"probes", lp.probes},
		{"golden campaign", lp.goldenCampaign},
		{"heavy cells", lp.heavyCells},
		{"assembly", lp.assembly},
		{"fast-forward", lp.fastForward},
		{"shards", lp.shards},
		{"fleet sweep", lp.fleetSweep},
		{"trace.json", lp.writeTrace},
	} {
		t0 := time.Now()
		stage.run()
		fmt.Fprintf(os.Stderr, "bench: layer pass: %-16s %6.2f s\n", stage.name, time.Since(t0).Seconds())
	}
	return result{
		Correct:   len(lp.problems) == 0,
		Attempted: max(lp.cells, 1),
		Failed:    lp.failed,
		Metrics:   lp.metrics,
	}, lp.problems
}

type pass struct {
	sc       scale
	seed     int64
	metrics  map[string]metric
	problems []string
	cells    int
	failed   int
	trace    map[string][]span

	// pi2 is the production 1k PI2 packet-mode cell at this pass's scale:
	// the reference for the mirror, the shard ratios and the ff error.
	pi2     campaign.RunRecord
	pi2Wall float64
}

func (lp *pass) set(name string, v float64, unit string) { lp.metrics[name] = metric{v, unit} }

func (lp *pass) fail(format string, args ...any) {
	lp.problems = append(lp.problems, fmt.Sprintf(format, args...))
}

// n scales a probe's iteration count.
func (lp *pass) n(full int) int { return max(full/lp.sc.probeDiv, 64) }

func (lp *pass) heavyDur() time.Duration {
	return heavySimSeconds * time.Second / time.Duration(lp.sc.heavyDiv)
}

// exec runs production cells exactly as a workload rep does and books them.
func (lp *pass) exec(tasks []campaign.Task, opt campaign.ExecOptions) ([]campaign.RunRecord, float64) {
	opt.Jobs, opt.BaseSeed = 1, lp.seed
	t0 := time.Now()
	recs := campaign.Execute(tasks, opt)
	wall := time.Since(t0).Seconds()
	s := summarize(recs)
	lp.cells += s.cells
	lp.failed += s.failed
	lp.problems = append(lp.problems, s.problems...)
	return recs, wall
}

func (lp *pass) heavy(aqm string, flows int, ff bool, opt campaign.ExecOptions) (campaign.RunRecord, float64) {
	cell, err := heavyCell(aqm, flows, lp.sc.heavyDiv, ff)
	if err != nil {
		lp.fail("%v", err)
		return campaign.RunRecord{}, 0
	}
	opt.FastForward = ff
	recs, wall := lp.exec([]campaign.Task{cell}, opt)
	return recs[0], wall
}

func (lp *pass) shares(workload string, fn func()) {
	shares, err := cpuShares(filepath.Join(outDir, workload+".prof"), fn)
	if err != nil {
		lp.fail("cpu profile of %s: %v", workload, err)
	}
	var sum float64
	for _, b := range cpuBuckets {
		lp.set("cpu_share."+workload+"."+b, shares[b], "ratio")
		sum += shares[b]
	}
	if err == nil && math.Abs(sum-1) > 0.01 {
		lp.fail("cpu_share.%s.* sums to %.4f, not 1", workload, sum)
	}
}

func (lp *pass) probes() {
	lp.set("sim.ns_per_event.d64", probeSimEvent(64, lp.n(400000)), "ns")
	lp.set("sim.ns_per_event.d4096", probeSimEvent(4096, lp.n(200000)), "ns")
	lp.set("sim.ns_per_event.d16384", probeSimEvent(16384, lp.n(200000)), "ns")
	lp.set("sim.ns_per_timer_churn", probeTimerChurn(lp.n(200000)), "ns")
	lp.set("sim.shift_pending_us.d16384", probeShiftPending(16384, lp.n(200)), "us")
	lp.set("shard.ns_per_cross_msg", probeCrossMsg(lp.n(64000)), "ns")
	lp.set("packet.ns_per_recycle", probePacketRecycle(lp.n(1000000)), "ns")

	for name, b := range bottlenecks {
		lp.set(name, probePacketPath(b, lp.n(200000)), "ns")
	}
	for _, a := range []string{"pi2", "pie", "codel"} {
		lp.set("aqm.ns_per_decision."+a, probeDecision(a, lp.n(1000000)), "ns")
	}
	lp.set("aqm.ns_per_update.pi2", probeUpdate(warmedPI2(), lp.n(1000000)), "ns")
	lp.set("aqm.ns_per_update.pie", probeUpdate(warmedPIE(), lp.n(1000000)), "ns")

	acks, allocated := probeAcks(lp.n(500000))
	for name, ns := range acks {
		lp.set(name, ns, "ns")
	}
	if allocated > 0 {
		lp.fail("per-ACK congestion-control loops allocated %d heap objects, want 0", allocated)
	}
	lp.set("tcp.ns_per_segment", probeSegment(lp.n(200000)), "ns")
	lp.set("tcp.new_endpoint_us", probeNewEndpoint(lp.n(5000)), "us")

	lp.set("stats.ns_per_add.loghist", probeAdd(stats.NewDelayHistogram().Add, lp.n(1000000)), "ns")
	lp.set("stats.ns_per_add.sample", probeAdd(new(stats.Sample).Add, lp.n(1000000)), "ns")
	lp.set("stats.ns_per_add.welford", probeAdd(new(stats.Welford).Add, lp.n(1000000)), "ns")
	lp.set("stats.percentile_ms.sample_1m", probeSamplePercentile(lp.n(1000000)), "ms")

	us, err := emptyCells(lp.n(50000), nil)
	if err != nil {
		lp.fail("%v", err)
	}
	lp.set("campaign.us_per_empty_cell", us, "us")
	lp.set("campaign.matrix_build_ms", medianOf3(func() float64 {
		t0 := time.Now()
		for _, m := range []struct {
			family string
			spec   map[string]any
		}{
			{"heavy", map[string]any{}},
			{"heavy", map[string]any{"ff": true}},
			{"sweep", sweepSpec(golden.TimeDiv, fullScale.sweepReps)},
		} {
			if _, _, err := buildMatrix(m.family, m.spec); err != nil {
				lp.fail("%v", err)
			}
		}
		return time.Since(t0).Seconds() * 1e3
	}), "ms")

	spawnMs, stdioUs, err := probeFleetStdio(lp.n(4000))
	if err != nil {
		lp.fail("fleet stdio probe: %v", err)
	}
	lp.set("fleet.spawn_ms", spawnMs, "ms")
	lp.set("fleet.us_per_empty_cell.stdio", stdioUs, "us")
	tcpUs, err := probeFleetTCP(lp.n(4000))
	if err != nil {
		lp.fail("fleet tcp probe: %v", err)
	}
	lp.set("fleet.us_per_empty_cell.tcp", tcpUs, "us")
}

// goldenCampaign is one golden_campaign rep under the profiler, with a span
// around each experiment: golden.ms.* says which experiment a wall_s move on
// that workload came from.
func (lp *pass) goldenCampaign() {
	want, err := goldenPrepare()
	if err != nil {
		lp.fail("golden set-up: %v", err)
		return
	}
	spans := map[string]time.Duration{}
	var out repOut
	lp.shares("golden_campaign", func() { out = goldenRep(want, spans) })
	lp.cells += out.cells
	lp.failed += out.failed
	lp.problems = append(lp.problems, out.problems...)
	lp.set("campaign.cells", float64(out.cells), "count")
	var total time.Duration
	tr := []span{{Name: "golden.campaign", Count: 1}}
	for _, name := range campaign.AllNames() {
		lp.set("golden.ms."+name, spans[name].Seconds()*1e3, "ms")
		total += spans[name]
		tr = append(tr, span{Name: "golden.check." + name, Parent: "golden.campaign", Count: 1,
			TotalNs: spans[name].Nanoseconds(), SelfNs: spans[name].Nanoseconds()})
	}
	tr[0].TotalNs = total.Nanoseconds()
	lp.addTrace("golden_campaign", tr)
}

func (lp *pass) addTrace(cell string, spans []span) {
	if lp.trace == nil {
		lp.trace = map[string][]span{}
	}
	lp.trace[cell] = spans
}

// heavyCells runs the two 1k production cells, then their mirrors untraced
// (under the profiler) and traced.
func (lp *pass) heavyCells() {
	flows, dur := lp.sc.flows1k, lp.heavyDur()
	lp.pi2, lp.pi2Wall = lp.heavy("pi2", flows, false, campaign.ExecOptions{})
	dual, _ := lp.heavy("dualpi2", flows, false, campaign.ExecOptions{})
	lp.set("sim.events", float64(lp.pi2.Events), "count")

	var worstDelta float64
	for _, c := range []struct {
		name   string
		prod   campaign.RunRecord
		mirror func(seed int64, n int, dur time.Duration, traced bool) mirrorOut
	}{
		{"heavy1k_pi2", lp.pi2, mirrorPI2},
		{"heavy1k_dualpi2", dual, mirrorDual},
	} {
		var plain mirrorOut
		lp.shares(c.name, func() { plain = c.mirror(c.prod.Seed, flows, dur, false) })
		traced := c.mirror(c.prod.Seed, flows, dur, true)
		for _, m := range []mirrorOut{plain, traced} {
			if m.problem != "" {
				lp.fail("%s mirror: %s", c.name, m.problem)
			}
		}
		if c.prod.Events > 0 {
			worstDelta = max(worstDelta, math.Abs(float64(plain.events)-float64(c.prod.Events))/float64(c.prod.Events))
		}
		if traced.events != plain.events {
			lp.fail("%s: tracing changed the event count (%d traced, %d untraced)", c.name, traced.events, plain.events)
		}
		run, enq, del := traced.spans[0], traced.spans[1], traced.spans[2]
		lp.set("span."+c.name+".link_enqueue_ns_per_pkt", float64(enq.TotalNs)/float64(max(enq.Count, 1)), "ns")
		lp.set("span."+c.name+".tcp_deliver_ns_per_pkt", float64(del.TotalNs)/float64(max(del.Count, 1)), "ns")
		lp.set("span."+c.name+".loop_self_frac", float64(run.SelfNs)/float64(run.TotalNs), "ratio")
		lp.set("trace.overhead_frac."+c.name, traced.wall.Seconds()/plain.wall.Seconds()-1, "ratio")
		lp.addTrace(c.name, traced.spans)

		if c.name == "heavy1k_pi2" {
			lp.set("link.enqueues", float64(plain.enqueues), "count")
			lp.set("link.marks", float64(plain.marks), "count")
			lp.set("link.drops", float64(plain.drops), "count")
			lp.set("link.mark_ratio", float64(plain.marks)/float64(max(plain.enqueues, 1)), "ratio")
			lp.set("tcp.retransmissions", float64(plain.retx), "count")
			lp.set("tcp.congestion_events", float64(plain.congEvents), "count")
			lp.set("tcp.rtos", float64(plain.rtos), "count")
			lp.set("packet.pool_news", float64(plain.poolNews), "count")
		}
	}
	lp.set("experiments.mirror_event_delta", worstDelta, "ratio")
	if worstDelta > 0.001 {
		lp.fail("mirror cells drifted from production: event count off by %.4f%% (limit 0.1%%)", 100*worstDelta)
	}
}

// heavyScenario is the single-queue heavy cell as experiments.runHeavyCell
// describes it, for the assembly probe.
func heavyScenario(seed int64, n int) experiments.Scenario {
	factory, _ := experiments.FactoryByName("pi2", heavyTarget)
	sc := experiments.Scenario{
		Seed:           seed,
		LinkRateBps:    heavyPerFlowBps * float64(n),
		NewAQM:         factory,
		CompactMetrics: true,
	}
	for _, g := range heavyMix(n) {
		sc.Bulk = append(sc.Bulk, traffic.BulkFlowSpec{CC: g.cc, Count: g.count, RTT: heavyRTT, Label: g.cc})
	}
	return sc
}

// assembly times experiments.Run with Duration 0: build the scenario, start
// every flow, collect — per-flow set-up with no steady state behind it.
func (lp *pass) assembly() {
	for _, c := range []struct {
		name  string
		flows int
	}{{"1k", lp.sc.flows1k}, {"5k", lp.sc.flows5k}} {
		lp.set("experiments.assemble_ms."+c.name, medianOf3(func() float64 {
			t0 := time.Now()
			experiments.Run(heavyScenario(lp.seed, c.flows))
			return time.Since(t0).Seconds() * 1e3
		}), "ms")
	}
}

// fastForward reports the engine's own telemetry from the 5k production
// cell, its accuracy (a 1k cell with and without it), and the cost of one
// epoch timed from outside.
func (lp *pass) fastForward() {
	big, _ := lp.heavy("pi2", lp.sc.flows5k, true, campaign.ExecOptions{})
	if p, ok := big.Result.(experiments.HeavyPoint); ok {
		lp.set("ff.epochs", float64(p.FFEpochs), "count")
		lp.set("ff.sim_s_skipped", p.FFTimeS, "s")
		lp.set("ff.virtual_pkts", float64(p.FFVirtualPkts), "count")
		lp.set("ff.engaged_frac", p.FFTimeS/lp.heavyDur().Seconds(), "ratio")
	} else {
		lp.fail("5k ff cell returned %T, not a HeavyPoint", big.Result)
	}

	small, _ := lp.heavy("pi2", lp.sc.flows1k, true, campaign.ExecOptions{})
	pkt, okP := lp.pi2.Result.(experiments.HeavyPoint)
	fwd, okF := small.Result.(experiments.HeavyPoint)
	if okP && okF {
		lp.set("ff.qmean_err_frac", math.Abs(fwd.QMeanMs-pkt.QMeanMs)/pkt.QMeanMs, "ratio")
		lp.set("ff.goodput_err_frac", math.Abs(fwd.RateW.Mean()-pkt.RateW.Mean())/pkt.RateW.Mean(), "ratio")
	} else {
		lp.fail("1k cells returned %T and %T, not HeavyPoints", lp.pi2.Result, small.Result)
	}

	us, err := probeFFEpoch(lp.n(200))
	if err != nil {
		lp.fail("ff epoch probe: %v", err)
	}
	lp.set("ff.us_per_epoch", us, "us")
}

// probeFFEpoch times ff.Engine.TryAdvance on a quiescent 120-flow PI2 cell,
// one virtual second per call; the packet-mode interludes that re-establish
// quiescence after a stay-band exit are not timed. Microseconds per
// committed epoch.
func probeFFEpoch(calls int) (float64, error) {
	const flows = 120
	s := sim.New(1)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		RateBps: heavyPerFlowBps * flows,
		AQM:     core.New(core.Config{}, s.RNG()),
		Sojourn: stats.NewDelayHistogram(),
	}, d.Deliver)
	eng, ok := ff.New(s, l, heavyFlows(s, d, flows, l.Enqueue, (*tcp.Endpoint).Start))
	if !ok {
		return 0, fmt.Errorf("PI2 cell does not support fast-forward")
	}
	settle := func() {
		for i := 0; i < 600 && !eng.Quiescent(); i++ {
			s.RunUntil(s.Now() + 50*time.Millisecond)
		}
	}
	s.RunUntil(2 * time.Second)
	settle()
	var spent time.Duration
	before := eng.Epochs
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		adv := eng.TryAdvance(s.Now() + time.Second)
		spent += time.Since(t0)
		if adv == 0 {
			settle()
		}
	}
	if eng.Epochs == before {
		return 0, fmt.Errorf("no epoch committed in %d attempts", calls)
	}
	return spent.Seconds() * 1e6 / float64(eng.Epochs-before), nil
}

// shards is the honest -shards curve: the same 1k PI2 cell on two event-loop
// domains, against the single-loop run above. On a box with two shared cores
// its wall time spreads 20–30 %, which is why it is a layer metric and no
// end-to-end workload depends on it.
func (lp *pass) shards() {
	var walls []float64
	var events uint64
	for i := 0; i < 3; i++ {
		rec, wall := lp.heavy("pi2", lp.sc.flows1k, false, campaign.ExecOptions{Shards: 2})
		walls, events = append(walls, wall), rec.Events
	}
	lp.set("shard.wall_ratio.s2", median(walls)/lp.pi2Wall, "ratio")
	lp.set("shard.event_ratio.s2", float64(events)/float64(max(lp.pi2.Events, 1)), "ratio")
}

// fleetSweep runs the fleet workload's grid once through a one-worker fleet
// and once in-process, and prices the difference per cell; the in-process
// records then feed the wire and journal probes.
func (lp *pass) fleetSweep() {
	argv, err := workerCommand()
	if err != nil {
		lp.fail("%v", err)
		return
	}
	tasks, spec, err := buildMatrix("sweep", sweepSpec(golden.TimeDiv, lp.sc.sweepReps))
	if err != nil {
		lp.fail("%v", err)
		return
	}
	twin, twinWall := lp.exec(tasks, campaign.ExecOptions{})
	t0 := time.Now()
	viaFleet := summarize(fleetExecute(argv, tasks, spec, lp.seed))
	fleetWall := time.Since(t0).Seconds()
	lp.cells += viaFleet.cells
	lp.failed += viaFleet.failed
	lp.problems = append(lp.problems, viaFleet.problems...)
	if viaFleet.digest != digest(twin) {
		lp.fail("fleet sweep records differ from the in-process twin's")
	}
	lp.set("fleet.overhead_ms_per_cell", (fleetWall-twinWall)*1e3/float64(len(tasks)), "ms")

	size, encUs, decUs, err := probeRecordWire(twin)
	if err != nil {
		lp.fail("record wire probe: %v", err)
	}
	lp.set("fleet.record_bytes.sweep", size, "B")
	lp.set("fleet.encode_us.sweep", encUs, "us")
	lp.set("fleet.decode_us.sweep", decUs, "us")
	jUs, err := probeJournal(twin, filepath.Join(outDir, "journal.tmp"))
	if err != nil {
		lp.fail("journal probe: %v", err)
	}
	lp.set("fleet.journal_us_per_append", jUs, "us")
}

// writeTrace writes the aggregated spans, kept in memory until now.
func (lp *pass) writeTrace() {
	raw, err := json.MarshalIndent(map[string]any{"seed": lp.seed, "cells": lp.trace}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, "trace.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		lp.fail("writing trace.json: %v", err)
	}
}
