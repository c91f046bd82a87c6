// Package experiments contains one driver per table/figure of the paper's
// evaluation (Section 6), plus the generic scenario runner they share.
// Each driver builds the paper's topology, runs it on the discrete-event
// simulator and emits the same rows/series the paper reports.
package experiments

import (
	"math/rand"
	"slices"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/campaign"
	"pi2/internal/faults"
	"pi2/internal/ff"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
	"pi2/internal/traffic"
)

// AQMFactory builds a fresh AQM instance for one run.
type AQMFactory func(rng *rand.Rand) aqm.AQM

// StagedSpec describes the varying-intensity flow schedule (Figures 6, 13).
type StagedSpec struct {
	// CC is the congestion control for every staged flow.
	CC string
	// RTT is the base round-trip time.
	RTT time.Duration
	// Counts is the number of active flows per stage.
	Counts []int
	// StageLen is each stage's duration.
	StageLen time.Duration
}

// RateChange switches the link capacity at a point in time (Figure 12).
type RateChange struct {
	At      time.Duration
	RateBps float64
}

// Scenario is a complete single-bottleneck experiment description.
type Scenario struct {
	// Seed drives all randomness; runs are reproducible bit-for-bit.
	Seed int64
	// LinkRateBps is the initial bottleneck capacity.
	LinkRateBps float64
	// BufferPackets bounds the queue (default 40000, Table 1).
	BufferPackets int
	// NewAQM builds the queue manager of the default FIFO bottleneck.
	NewAQM AQMFactory
	// Bottleneck, if set, builds the bottleneck instead of a FIFO under
	// NewAQM: on the run's link simulator, from cfg's rate, buffer and
	// sojourn collector, in front of deliver. It returns the link and the
	// discipline's own warm-up reset (see setBottleneck).
	Bottleneck func(s *sim.Simulator, cfg link.Config, deliver func(*packet.Packet)) (l *link.Link, resetStats func())
	// Bulk, Staged, UDP and Web describe the offered load.
	Bulk   []traffic.BulkFlowSpec
	Staged *StagedSpec
	UDP    []traffic.UDPSpec
	Web    []traffic.WebSpec
	// RateChanges vary the capacity during the run.
	RateChanges []RateChange
	// Duration is the simulated run length.
	Duration time.Duration
	// WarmUp excludes start-up transients from steady-state statistics
	// (time series still cover the whole run).
	WarmUp time.Duration
	// SampleEvery sets the coarse time-series interval (default 1 s,
	// matching the paper's plots).
	SampleEvery time.Duration
	// SACK enables selective acknowledgments on every bulk flow.
	SACK bool
	// AckEvery sets the delayed/stretch-ACK factor on every bulk flow
	// (0/1 = acknowledge each segment).
	AckEvery int
	// Impair, if non-nil, applies the fault layer to the run: per-packet
	// channel impairments (loss, reordering, duplication) wrap the
	// bottleneck's delivery callback, and a rate schedule drives the
	// link's capacity. Nil leaves the delivery path — and every RNG
	// stream, and therefore every golden fingerprint — exactly as before.
	Impair *faults.Config
	// Watch, if set, receives the run's simulator right after it is
	// built. Drivers set it to the campaign TaskCtx's Watch so the
	// watchdog can cancel the run and observe its virtual clock.
	Watch func(campaign.Canceler)
	// FastForward enables the hybrid fluid/packet engine: quiescent
	// congestion-avoidance epochs are advanced analytically from one AQM
	// update to the next instead of packet by packet (see internal/ff and
	// DESIGN.md). Only scenarios with a steady bulk population and a
	// FastForwarder AQM actually engage it — everything else (staged, UDP,
	// web, rate changes, impairments, SACK) silently runs the classic
	// per-packet loop. Off (the default) keeps the run byte-identical to
	// builds without the engine.
	FastForward bool
	// Shards, when ≥ 2, runs the scenario on the conservative-PDES
	// coordinator: bulk flows are partitioned across Shards-1 endpoint
	// domains and the bottleneck link+AQM owns the last domain, all
	// advancing in lock-step lookahead windows (see internal/sim/shard.go).
	// One-way propagation moves onto the cross-domain wires, so sharded
	// results are deterministic for a fixed shard count but not
	// byte-identical to the single-domain schedule. 0 or 1 — and any
	// scenario without partitionable bulk flows — uses the classic
	// single-simulator path, byte-identical to before sharding existed.
	Shards int
	// CompactMetrics has no effect: every distribution collector is a
	// constant-memory histogram.
	//
	// Deprecated: kept only because the bench module's heavy-cell probe
	// still sets it; it goes with that probe.
	CompactMetrics bool
}

// GroupResult summarizes one bulk-flow group after the run.
type GroupResult struct {
	// Label is the group's tag (defaults to the CC name).
	Label string
	// CC is the congestion-control name.
	CC string
	// FlowRates holds each flow's goodput in bits/s over the
	// measurement window (after WarmUp).
	FlowRates []float64
	// Marks is the total CE marks seen by the group's receivers.
	Marks int
	// CongestionEvents is the total multiplicative decreases.
	CongestionEvents int
	// Retransmissions is the total retransmitted segments.
	Retransmissions int
}

// Total returns the group's aggregate goodput in bits/s.
func (g GroupResult) Total() float64 {
	var sum float64
	for _, r := range g.FlowRates {
		sum += r
	}
	return sum
}

// MeanPerFlow returns the mean per-flow goodput in bits/s.
func (g GroupResult) MeanPerFlow() float64 {
	if len(g.FlowRates) == 0 {
		return 0
	}
	return g.Total() / float64(len(g.FlowRates))
}

// UDPResult reports one unresponsive source's fate over the measurement
// window — the loss numbers Figure 12-style overload experiments need.
type UDPResult struct {
	// RateBps is the configured send rate in bits/s.
	RateBps float64
	// SentBytes and DeliveredBytes count the window's traffic; LostBytes
	// is their difference (packets still queued at the end count as lost,
	// which over a multi-second window is negligible).
	SentBytes, DeliveredBytes, LostBytes int64
	// DeliveredBps is the delivered goodput in bits/s over the window.
	DeliveredBps float64
	// LossRatio is LostBytes/SentBytes (0 when nothing was sent).
	LossRatio float64
}

// Result is everything an experiment driver needs to print its figure.
type Result struct {
	// DelaySeries is the queue delay (seconds) sampled at SampleEvery.
	DelaySeries stats.TimeSeries
	// DelayFine is the queue delay sampled every 100 ms (Figure 12 peaks).
	DelayFine stats.TimeSeries
	// GoodputSeries is total TCP goodput (bits/s) at SampleEvery.
	GoodputSeries stats.TimeSeries
	// Sojourn is the per-packet queuing delay (seconds) over the
	// measurement window — the paper's Figure 14/16 metric. This and the
	// other Quantiler fields hold constant-memory histograms
	// (stats.NewDelayHistogram): mean, extremes and counts are exact, a
	// percentile is within one 2 % bin of the exact order statistics.
	Sojourn stats.Quantiler
	// ClassicProb and ScalableProb sample the AQM's probabilities every
	// 100 ms over the measurement window (Figure 17).
	ClassicProb, ScalableProb stats.Quantiler
	// UtilSeries samples link utilization per SampleEvery interval over
	// the measurement window (Figure 18's P1/mean/P99).
	UtilSeries stats.Quantiler
	// Utilization is the mean over the measurement window.
	Utilization float64
	// Groups reports per-group flow rates in Scenario order (staged and
	// web groups excluded).
	Groups []GroupResult
	// DropsAQM, DropsOverflow, Marks count the whole-run totals.
	DropsAQM, DropsOverflow, Marks int
	// WebFCT aggregates web-workload flow completion times (seconds).
	WebFCT stats.Quantiler
	// UDP reports per-source delivered/lost bytes in Scenario order.
	UDP []UDPResult
	// FaultDrops, FaultDups and FaultReorders count the impairment
	// layer's interventions (all zero without Scenario.Impair).
	FaultDrops, FaultDups, FaultReorders int
	// Events is the number of simulator events processed (bench metric).
	// Virtual fast-forward traffic is deliberately excluded: this counts
	// real packet-mode work only.
	Events uint64
	// FFEpochs, FFZeroEpochs, FFVirtualPkts and FFTime are the fast-forward
	// engine's telemetry: committed epochs, detected-but-empty epochs (test
	// hook), virtual packets decided, and total virtual time skipped. All
	// zero when Scenario.FastForward is off or never engaged.
	FFEpochs, FFZeroEpochs int
	FFVirtualPkts          uint64
	FFTime                 time.Duration
}

// EventCount reports the processed-event total; it satisfies
// campaign.EventCounter so the engine can attribute events/sec to each run.
func (r *Result) EventCount() uint64 { return r.Events }

// newQuantiler builds every distribution collector the experiments hand to
// a simulation. It is a variable so tests can observe the collectors.
var newQuantiler = func() stats.Quantiler { return stats.NewDelayHistogram() }

// emptyResult returns a Result whose collectors are empty, so consumers of
// a failed (panicked) cell print zeros instead of hitting nil Quantiler
// interfaces.
func emptyResult() *Result {
	return &Result{
		Sojourn:      newQuantiler(),
		ClassicProb:  newQuantiler(),
		ScalableProb: newQuantiler(),
		UtilSeries:   newQuantiler(),
		WebFCT:       newQuantiler(),
	}
}

// driver is the event loop a scenario runs on: one simulator, or the
// conservative-PDES coordinator over several.
type driver interface {
	campaign.Canceler
	ff.Clock
	RunUntil(end time.Duration)
	Processed() uint64
}

// substrate says where a scenario's pieces live. Loop 0 hosts the link, its
// AQM, the impairment layer and every co-located workload (staged, UDP, web);
// bulk flows sit wherever place puts them. One loop is the classic
// single-simulator run, several are the sharded one (sharded.go) — Run itself
// does not know which it got.
type substrate struct {
	loop driver
	// sims and flows are indexed by loop: each loop resets and samples only
	// the long-lived flows it owns.
	sims  []*sim.Simulator
	flows [][]*tcp.Endpoint
	// egress is the link's delivery callback.
	egress func(*packet.Packet)
	// place wires one bulk group, ids first..first+spec.Count-1 (bulk ids
	// run 1..nBulk in creation order), in front of the link's ingress. It
	// appends each loop's share to flows[k] in id order and returns the
	// group's flows in id order.
	place func(first int, spec traffic.BulkFlowSpec, linkEnq tcp.Enqueuer) []*tcp.Endpoint
	// wires audits cross-loop traffic (nil on one loop).
	wires *link.WireAuditor
}

// newSubstrate picks the substrate for a scenario; shardable is the only
// selector.
func newSubstrate(sc Scenario, d *link.Dispatcher, nBulk int) substrate {
	if shardable(sc) {
		return shardedSubstrate(sc, d, nBulk)
	}
	s := sim.New(sc.Seed)
	flows := [][]*tcp.Endpoint{make([]*tcp.Endpoint, 0, nBulk)}
	return substrate{
		loop:   s,
		sims:   []*sim.Simulator{s},
		flows:  flows,
		egress: d.Deliver,
		place: func(first int, spec traffic.BulkFlowSpec, linkEnq tcp.Enqueuer) []*tcp.Endpoint {
			g := traffic.NewBulk(s, linkEnq, first, 1, spec.Count, spec, false)
			deliver := g.DeliverData
			for i := range g.Flows {
				ep := &g.Flows[i]
				d.Register(ep.ID(), deliver)
				flows[0] = append(flows[0], ep)
			}
			return flows[0][len(flows[0])-spec.Count:]
		},
	}
}

// newSeries returns a time series with room for every sample an Every
// sampler at interval takes over a run of length dur.
func newSeries(interval, dur time.Duration) stats.TimeSeries {
	ts := stats.TimeSeries{Interval: interval}
	if n := int(dur / interval); n > 0 {
		ts.Times = make([]time.Duration, 0, n)
		ts.Values = make([]float64, 0, n)
	}
	return ts
}

// Run executes a scenario to completion.
func Run(sc Scenario) *Result {
	if sc.SampleEvery == 0 {
		sc.SampleEvery = time.Second
	}
	nBulk := 0
	for _, b := range sc.Bulk {
		nBulk += b.Count
	}
	d := link.NewDispatcher()
	ids := 1 + nBulk + len(sc.UDP)
	if sc.Staged != nil && len(sc.Staged.Counts) > 0 {
		ids += slices.Max(sc.Staged.Counts)
	}
	d.Reserve(ids)
	sub := newSubstrate(sc, d, nBulk)
	if sc.Watch != nil {
		sc.Watch(sub.loop)
	}
	ls := sub.sims[0]
	// The impairment layer wraps the delivery callback *after* the link
	// (and, when sharded, before the wire), so the link auditor's
	// conservation identities hold unchanged with faults active. It is only
	// constructed when impairments are configured: an unimpaired run draws
	// no extra RNG stream.
	deliver := sub.egress
	var inj *faults.Injector
	if sc.Impair != nil && sc.Impair.Active() {
		inj = faults.NewInjector(ls, *sc.Impair, deliver)
		deliver = inj.Deliver
	}
	cfg := link.Config{
		RateBps:       sc.LinkRateBps,
		BufferPackets: sc.BufferPackets,
		Sojourn:       newQuantiler(),
	}
	var l *link.Link
	var resetLink func()
	if sc.Bottleneck != nil {
		l, resetLink = sc.Bottleneck(ls, cfg, deliver)
	} else {
		cfg.AQM = sc.NewAQM(ls.RNG())
		l = link.New(ls, cfg, deliver)
		resetLink = l.ResetStats
	}
	if sc.Impair != nil && sc.Impair.Rate != nil {
		sc.Impair.Rate.Apply(ls, l)
	}
	// Bound once per cell: l.Enqueue written per flow (or per packet, at a
	// wire's Send site) would materialize a fresh method value each time.
	linkEnq := tcp.Enqueuer(l.Enqueue)

	res := &Result{
		DelaySeries:   newSeries(sc.SampleEvery, sc.Duration),
		DelayFine:     newSeries(100*time.Millisecond, sc.Duration),
		GoodputSeries: newSeries(sc.SampleEvery, sc.Duration),
		ClassicProb:   newQuantiler(),
		ScalableProb:  newQuantiler(),
		UtilSeries:    newQuantiler(),
		WebFCT:        newQuantiler(),
	}

	// Bulk flows in creation order (group after group): the order of flow
	// IDs, of the per-group results and of the fast-forward engine's RNG
	// draws, whatever loop each flow lands on. Each group starts (and
	// stops) with one event per loop, over the group's run of that loop's
	// flows in creation order: the order per-flow events at one instant
	// would fire in.
	nextID := 1
	bulk := make([]*tcp.Endpoint, 0, nBulk)
	first := make([]int, len(sub.sims))
	for _, spec := range sc.Bulk {
		if sc.SACK {
			spec.SACK = true
		}
		if spec.AckEvery == 0 {
			spec.AckEvery = sc.AckEvery
		}
		for k := range first {
			first[k] = len(sub.flows[k])
		}
		bulk = append(bulk, sub.place(nextID, spec, linkEnq)...)
		nextID += spec.Count
		for k, es := range sub.sims {
			group := sub.flows[k][first[k]:]
			if len(group) == 0 {
				continue
			}
			es.At(spec.StartAt, func() {
				for _, ep := range group {
					ep.Start()
				}
			})
			if spec.StopAt > spec.StartAt {
				es.At(spec.StopAt, func() {
					for _, ep := range group {
						ep.Stop()
					}
				})
			}
		}
	}
	if sc.Staged != nil {
		var staged []*tcp.Endpoint
		staged, nextID = traffic.StagedCounts(ls, l, d, nextID,
			sc.Staged.CC, sc.Staged.RTT, sc.Staged.Counts, sc.Staged.StageLen)
		sub.flows[0] = append(sub.flows[0], staged...)
	}
	var udps []*traffic.UDPSource
	for _, spec := range sc.UDP {
		udps = append(udps, traffic.StartUDP(ls, l, d, nextID, spec))
		nextID++
	}
	for _, spec := range sc.Web {
		traffic.StartWeb(ls, l, d, &nextID, spec, res.WebFCT)
	}
	for _, rc := range sc.RateChanges {
		rate := rc.RateBps
		ls.At(rc.At, func() { l.SetRateBps(rate) })
	}

	// Warm-up boundary: every loop restarts its own flows' meters, on the
	// goroutine that owns them; loop 0 also restarts the link and UDP
	// meters. In fast-forward mode the hybrid loop invokes the reset for all
	// loops at the exact boundary instead of scheduling it (it runs on the
	// driving thread, between windows, with every loop parked): ShiftPending
	// translates every pending event when an epoch commits — right for
	// frozen packet processes, wrong for an absolute-calendar event like
	// this one.
	warmReset := func(k int) {
		now := sub.sims[k].Now()
		for _, f := range sub.flows[k] {
			f.Goodput.Reset(now)
		}
		if k == 0 {
			resetLink()
			for _, u := range udps {
				u.ResetStats(now)
			}
		}
	}
	eng := newFFEngine(sc, sub.loop, l, bulk)
	if eng == nil {
		for k, es := range sub.sims {
			k := k
			es.At(sc.WarmUp, func() { warmReset(k) })
		}
	}

	// Coarse sampler, one per loop: each loop reads only its own flows'
	// goodput. Loop 0 records straight into the result (the other loops'
	// series are added in after the run) and also samples the link's queue
	// delay and per-interval utilization.
	remote := make([]stats.TimeSeries, len(sub.sims)-1)
	var lastDelivered int64
	for k, es := range sub.sims {
		k, es, fl, series := k, es, sub.flows[k], &res.GoodputSeries
		if k > 0 {
			series = &remote[k-1]
			*series = newSeries(sc.SampleEvery, sc.Duration)
		}
		var last int64
		es.Every(sc.SampleEvery, func() {
			now := es.Now()
			var total int64
			for _, f := range fl {
				total += f.Goodput.Bytes()
			}
			series.Record(now, float64(total-last)*8/sc.SampleEvery.Seconds())
			last = total
			if k > 0 {
				return
			}
			res.DelaySeries.Record(now, l.QueueDelayNow().Seconds())
			delivered := l.Delivered.Bytes()
			// The meter is reset at the warm-up boundary; skip the sample
			// whose interval straddles the reset.
			if now > sc.WarmUp && delivered >= lastDelivered {
				util := float64(delivered-lastDelivered) * 8 /
					(sc.SampleEvery.Seconds() * l.RateBps())
				if util > 1 {
					util = 1
				}
				res.UtilSeries.Add(util)
			}
			lastDelivered = delivered
		})
	}

	// Fine sampler: 100 ms queue delay + probability samples.
	ls.Every(100*time.Millisecond, func() {
		now := ls.Now()
		res.DelayFine.Record(now, l.QueueDelayNow().Seconds())
		if now <= sc.WarmUp {
			return
		}
		if pr, ok := l.AQM().(aqm.ProbabilityReporter); ok {
			res.ClassicProb.Add(pr.DropProbability())
		}
		if sr, ok := l.AQM().(aqm.ScalableReporter); ok {
			res.ScalableProb.Add(sr.ScalableProbability())
		}
	})

	if eng != nil {
		runFastForward(eng, sub.loop, sc, func() {
			for k := range sub.sims {
				warmReset(k)
			}
		})
		ffCollect(res, eng)
	} else {
		sub.loop.RunUntil(sc.Duration)
	}

	// Collect. Every loop's clock sits at sc.Duration after the run.
	now := sub.loop.Now()
	res.Sojourn = l.Sojourn
	res.Utilization = l.Utilization()
	res.DropsAQM = l.Drops(link.DropAQM)
	res.DropsOverflow = l.Drops(link.DropOverflow)
	res.Marks = l.Marks()
	res.Events = sub.loop.Processed()
	for _, series := range remote {
		for i, v := range series.Values {
			res.GoodputSeries.Values[i] += v
		}
	}
	group := bulk
	for _, spec := range sc.Bulk {
		label := spec.Label
		if label == "" {
			label = spec.CC
		}
		gr := GroupResult{Label: label, CC: spec.CC,
			FlowRates: make([]float64, 0, spec.Count)}
		for _, f := range group[:spec.Count] {
			gr.FlowRates = append(gr.FlowRates, f.Goodput.RateBps(now))
			gr.Marks += f.MarksSeen()
			gr.CongestionEvents += f.CongestionEvents()
			gr.Retransmissions += f.Retransmissions()
		}
		group = group[spec.Count:]
		res.Groups = append(res.Groups, gr)
	}
	for _, u := range udps {
		ur := UDPResult{
			RateBps:        u.Spec.RateBps,
			SentBytes:      u.Sent.Bytes(),
			DeliveredBytes: u.Received.Bytes(),
			DeliveredBps:   u.Received.RateBps(now),
		}
		ur.LostBytes = ur.SentBytes - ur.DeliveredBytes
		if ur.LostBytes < 0 {
			ur.LostBytes = 0
		}
		if ur.SentBytes > 0 {
			ur.LossRatio = float64(ur.LostBytes) / float64(ur.SentBytes)
		}
		res.UDP = append(res.UDP, ur)
	}
	if inj != nil {
		res.FaultDrops = inj.Dropped
		res.FaultDups = inj.Duplicated
		res.FaultReorders = inj.Reordered
	}
	// A violated invariant — in the link, or in the wires between loops —
	// means the run's numbers cannot be trusted; panic so the campaign
	// engine fails this cell with the full report (which invariant, where)
	// instead of recording bogus metrics.
	if msg := l.Audit().Err("bottleneck link"); msg != "" {
		panic(msg)
	}
	if sub.wires != nil {
		if msg := sub.wires.Err("cross-domain wires"); msg != "" {
			panic(msg)
		}
	}
	return res
}
