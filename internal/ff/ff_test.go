package ff

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/core"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
)

// buildCell wires a small heavy-style cell: a PI2 bottleneck sized for
// 2 Mb/s per flow at 10 ms RTT, with a reno/cubic/dctcp mix — the regime the
// fast-forward engine targets.
func buildCell(t testing.TB, seed int64, reno, cubic, dctcp int) (*sim.Simulator, *link.Link, []*tcp.Endpoint) {
	t.Helper()
	n := reno + cubic + dctcp
	s := sim.New(seed)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		RateBps: 2e6 * float64(n),
		AQM:     core.New(core.Config{}, s.RNG()),
		Sojourn: stats.NewDelayHistogram(),
	}, d.Deliver)
	var flows []*tcp.Endpoint
	id := 1
	mk := func(name string, count int) {
		for i := 0; i < count; i++ {
			cc, mode, err := tcp.NewCCFeedback(name, "")
			if err != nil {
				t.Fatal(err)
			}
			ep := tcp.NewWithEnqueuer(s, l.Enqueue, tcp.Config{
				ID: id, CC: cc, ECN: mode, BaseRTT: 10 * time.Millisecond,
			})
			d.Register(id, ep.DeliverData)
			ep.Start()
			id++
			flows = append(flows, ep)
		}
	}
	mk("reno", reno)
	mk("cubic", cubic)
	mk("dctcp", dctcp)
	return s, l, flows
}

// seekQuiescent runs packet mode in short chunks until the engine's entry
// predicate holds, failing the test if it never does.
func seekQuiescent(t testing.TB, s *sim.Simulator, eng *Engine) {
	t.Helper()
	for i := 0; i < 600; i++ {
		if eng.Quiescent() {
			return
		}
		s.RunUntil(s.Now() + 50*time.Millisecond)
	}
	t.Fatal("system never became quiescent")
}

// TestEngineAdvanceAndResume: a committed epoch advances the clock, produces
// virtual traffic, and packet mode resumes cleanly — auditor invariants
// intact and post-epoch sojourns not inflated by the jump.
func TestEngineAdvanceAndResume(t *testing.T) {
	s, l, flows := buildCell(t, 7, 2, 2, 2)
	eng, ok := New(s, l, flows)
	if !ok {
		t.Fatal("PI2 cell must support fast-forward")
	}
	s.RunUntil(4 * time.Second)
	seekQuiescent(t, s, eng)

	start := s.Now()
	goodput0 := flows[0].Goodput.Bytes()
	delta := eng.TryAdvance(start + 2*time.Second)
	if delta <= 0 {
		t.Fatal("quiescent system refused to advance")
	}
	if got := s.Now(); got != start+delta {
		t.Fatalf("clock = %v, want %v", got, start+delta)
	}
	if eng.Epochs != 1 || eng.VirtualPkts == 0 || eng.FFTime != delta {
		t.Fatalf("telemetry: epochs=%d pkts=%d fftime=%v (delta %v)",
			eng.Epochs, eng.VirtualPkts, eng.FFTime, delta)
	}
	if flows[0].Goodput.Bytes() == goodput0 {
		t.Fatal("virtual progress did not reach the flow's goodput meter")
	}
	if got := l.Enqueues() - l.Dequeues() - l.TotalDrops() - l.BacklogPackets(); got != 0 {
		t.Fatalf("link conservation broken by %d", got)
	}

	// Resume packet mode across the seam.
	s.RunUntil(s.Now() + 2*time.Second)
	if v := l.Audit().Violations(); v != nil {
		t.Fatalf("auditor violations after resume: %v", v)
	}
	if got := l.Sojourn.Max(); got > 1.0 {
		t.Fatalf("post-epoch sojourn inflated: %gs", got)
	}
}

// TestEngineBarrier: the epoch never crosses the barrier, and a barrier
// closer than one update period commits nothing.
func TestEngineBarrier(t *testing.T) {
	s, l, flows := buildCell(t, 11, 2, 2, 2)
	eng, ok := New(s, l, flows)
	if !ok {
		t.Fatal("engine must build")
	}
	s.RunUntil(4 * time.Second)
	seekQuiescent(t, s, eng)

	now := s.Now()
	if d := eng.TryAdvance(now + eng.Tupdate()/2); d != 0 {
		t.Fatalf("advanced %v past a sub-period barrier", d)
	}
	barrier := now + 5*eng.Tupdate()
	if d := eng.TryAdvance(barrier); s.Now() > barrier {
		t.Fatalf("epoch crossed barrier: now %v > %v (delta %v)", s.Now(), barrier, d)
	}
}

// TestEngineForceZero: a detected epoch with ForceZero set mutates nothing —
// the zero-length-epoch property the experiments-level byte-identity test
// builds on.
func TestEngineForceZero(t *testing.T) {
	s, l, flows := buildCell(t, 13, 2, 2, 2)
	eng, ok := New(s, l, flows)
	if !ok {
		t.Fatal("engine must build")
	}
	eng.ForceZero = true
	s.RunUntil(4 * time.Second)
	seekQuiescent(t, s, eng)

	type flowSnap struct {
		cwnd    float64
		goodput int64
	}
	now := s.Now()
	enq, deq, marks := l.Enqueues(), l.Dequeues(), l.Marks()
	pp := l.AQM().(*core.PI2).PPrime()
	var snaps []flowSnap
	for _, f := range flows {
		snaps = append(snaps, flowSnap{f.FFCwnd(), f.Goodput.Bytes()})
	}

	if d := eng.TryAdvance(now + time.Second); d != 0 {
		t.Fatalf("ForceZero epoch advanced %v", d)
	}
	if eng.ZeroEpochs != 1 || eng.Epochs != 0 || eng.VirtualPkts != 0 {
		t.Fatalf("telemetry: zero=%d epochs=%d pkts=%d",
			eng.ZeroEpochs, eng.Epochs, eng.VirtualPkts)
	}
	if s.Now() != now {
		t.Fatalf("clock moved: %v -> %v", now, s.Now())
	}
	if l.Enqueues() != enq || l.Dequeues() != deq || l.Marks() != marks {
		t.Fatal("link counters mutated")
	}
	if got := l.AQM().(*core.PI2).PPrime(); got != pp {
		t.Fatalf("AQM p' mutated: %g -> %g", pp, got)
	}
	for i, f := range flows {
		if f.FFCwnd() != snaps[i].cwnd || f.Goodput.Bytes() != snaps[i].goodput {
			t.Fatalf("flow %d mutated", i)
		}
	}
}

// TestEngineRefusals: non-FastForwarder AQMs and empty flow sets refuse to
// build; a slow-start population refuses to enter.
func TestEngineRefusals(t *testing.T) {
	s := sim.New(1)
	d := link.NewDispatcher()
	tail := link.New(s, link.Config{RateBps: 1e7, AQM: aqm.TailDrop{}}, d.Deliver)
	cc, mode, _ := tcp.NewCCFeedback("reno", "")
	ep := tcp.NewWithEnqueuer(s, tail.Enqueue, tcp.Config{
		ID: 1, CC: cc, ECN: mode, BaseRTT: 10 * time.Millisecond,
	})
	if _, ok := New(s, tail, []*tcp.Endpoint{ep}); ok {
		t.Fatal("tail-drop must not fast-forward")
	}

	s2, l2, flows2 := buildCell(t, 17, 1, 0, 0)
	eng, ok := New(s2, l2, flows2)
	if !ok {
		t.Fatal("engine must build")
	}
	// Fresh flows are in slow start with an empty queue: not quiescent.
	if eng.Quiescent() {
		t.Fatal("cold-start system reported quiescent")
	}
}

// TestEngineRenoEquilibrium drives a Reno-only PI2 cell mostly analytically
// and checks the fast-forwarded steady state against the fluid-model
// operating point internal/fluid linearizes around: for Reno under PI2 the
// classic drop probability is p = p'^2 and equilibrium obeys p·w² = 2
// (κR = 1/(2p₀) in equation (35) is this relation differentiated), i.e.
// w₀ = √(2/p). The analytic stepping must land on the same curve the
// per-packet simulation — and the paper's control design — sit on.
func TestEngineRenoEquilibrium(t *testing.T) {
	n := 4
	s := sim.New(23)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		// 10 Mb/s per flow: a per-flow window of ~25 segments, deep in the
		// small-p regime where the square-root law is clean.
		RateBps: 1e7 * float64(n),
		AQM:     core.New(core.Config{}, s.RNG()),
		Sojourn: stats.NewDelayHistogram(),
	}, d.Deliver)
	var flows []*tcp.Endpoint
	for id := 1; id <= n; id++ {
		cc, mode, err := tcp.NewCCFeedback("reno", "")
		if err != nil {
			t.Fatal(err)
		}
		ep := tcp.NewWithEnqueuer(s, l.Enqueue, tcp.Config{
			ID: id, CC: cc, ECN: mode, BaseRTT: 10 * time.Millisecond,
		})
		d.Register(id, ep.DeliverData)
		ep.Start()
		flows = append(flows, ep)
	}
	eng, ok := New(s, l, flows)
	if !ok {
		t.Fatal("engine must build")
	}
	s.RunUntil(4 * time.Second)
	seekQuiescent(t, s, eng)

	// Hybrid loop to 120 s of virtual time in 1 s epochs. The PI2 integrator
	// and the Reno sawtooth oscillate slowly around the operating point, so
	// the equilibrium estimate is a time average over epoch boundaries in
	// the second half of the run, not a single-instant snapshot.
	end := 120 * time.Second
	var pSum, wSum float64
	var samples int
	for s.Now() < end {
		if eng.TryAdvance(s.Now()+time.Second) == 0 {
			s.RunUntil(s.Now() + 128*time.Millisecond)
		}
		if s.Now() > end/2 {
			pp := l.AQM().(*core.PI2).PPrime()
			var w float64
			for _, f := range flows {
				w += f.FFCwnd()
			}
			pSum += pp * pp
			wSum += w / float64(n)
			samples++
		}
	}
	if eng.FFTime < 90*time.Second {
		t.Fatalf("cell was not mostly fast-forwarded: ffTime=%v", eng.FFTime)
	}
	if samples < 20 {
		t.Fatalf("too few equilibrium samples: %d", samples)
	}

	p := pSum / float64(samples)
	if p <= 0 {
		t.Fatal("no operating point: p = 0")
	}
	pp := math.Sqrt(p)
	meanW := wSum / float64(samples)
	want := math.Sqrt(2 / p)
	ratio := meanW / want
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("equilibrium off the √(2/p) curve: p'=%.4f p=%.5f meanCwnd=%.1f want≈%.1f (ratio %.2f)",
			pp, p, meanW, want, ratio)
	}
	// The queue must still be parked near the PI2 target (the band the
	// engine promises to stay in).
	if qd := l.QueueDelayNow(); qd < 5*time.Millisecond || qd > 80*time.Millisecond {
		t.Errorf("queue left the operating band: %v", qd)
	}
	t.Logf("p'=%.4f p=%.5f meanCwnd=%.1f sqrt(2/p)=%.1f ratio=%.2f ffTime=%v epochs=%d",
		pp, p, meanW, want, meanW/want, eng.FFTime, eng.Epochs)
}

// TestEngineCountsFluidOverflow drives an epoch into the buffer: with the
// buffer shallower than PI2's target, p decays to zero, nothing is dropped,
// and the growing flows push the fluid backlog past the buffer every period
// while the stay band (4·target) never ends the epoch. The engine clamps
// the backlog there, and the overflow counters must say so.
func TestEngineCountsFluidOverflow(t *testing.T) {
	const n = 8
	const rate = 2e6 * n
	s := sim.New(29)
	d := link.NewDispatcher()
	l := link.New(s, link.Config{
		RateBps: rate,
		// 15 ms of queue at the link rate: inside the entry band
		// [target/2, 2·target], below the stay band's 4·target edge.
		BufferPackets: int(0.015 * rate / 8 / packet.FullLen),
		AQM:           core.New(core.Config{}, s.RNG()),
		Sojourn:       stats.NewDelayHistogram(),
	}, d.Deliver)
	var flows []*tcp.Endpoint
	for id := 1; id <= n; id++ {
		cc, mode, err := tcp.NewCCFeedback("reno", "")
		if err != nil {
			t.Fatal(err)
		}
		ep := tcp.NewWithEnqueuer(s, l.Enqueue, tcp.Config{
			ID: id, CC: cc, ECN: mode, BaseRTT: 10 * time.Millisecond,
		})
		d.Register(id, ep.DeliverData)
		ep.Start()
		flows = append(flows, ep)
	}
	eng, ok := New(s, l, flows)
	if !ok {
		t.Fatal("engine must build")
	}
	s.RunUntil(4 * time.Second)
	seekQuiescent(t, s, eng)
	if eng.OverflowPeriods != 0 || eng.OverflowBytes != 0 {
		t.Fatalf("overflow counted before any epoch: %d periods, %g bytes",
			eng.OverflowPeriods, eng.OverflowBytes)
	}
	if delta := eng.TryAdvance(s.Now() + 2*time.Second); delta <= 0 {
		t.Fatal("quiescent system refused to advance")
	}
	if eng.OverflowPeriods == 0 || eng.OverflowBytes <= 0 {
		t.Fatalf("epoch into a full buffer counted no overflow: %d periods, %g bytes",
			eng.OverflowPeriods, eng.OverflowBytes)
	}
	t.Logf("%d periods overflowed by %.0f bytes in %v", eng.OverflowPeriods, eng.OverflowBytes, eng.FFTime)
}

// TestDecideCreditPerBaseRTT: stage A converts a flow's RTT to seconds once
// per run of equal base RTTs. Over flows whose base RTTs change from flow
// to flow, every flow's credit must still be its own cwnd·dt/RTT to the
// bit.
func TestDecideCreditPerBaseRTT(t *testing.T) {
	rtts := []time.Duration{10, 10, 30, 30, 10, 50, 7, 7, 7, 10}
	e := &Engine{
		fwd:      core.New(core.Config{}, sim.New(1).RNG()),
		flows:    make([]flow, len(rtts)),
		verdicts: make([]verdict, len(rtts)),
		cwnd:     make([]float64, len(rtts)),
	}
	for i, r := range rtts {
		e.flows[i] = flow{ecn: packet.ECT0, baseRTT: r * time.Millisecond}
		e.cwnd[i] = 3.7 + float64(i)
	}
	qd, dt := 13*time.Millisecond+17, 0.032
	e.decide(0, len(rtts), 0, qd, 0, dt)
	for i, f := range e.flows {
		want := e.cwnd[i] * dt / (f.baseRTT + qd).Seconds()
		want -= float64(int(want))
		if f.credit != want {
			t.Fatalf("flow %d (base RTT %v): credit %v, want %v", i, f.baseRTT, f.credit, want)
		}
	}
}

// pipeCell is a three-batch mixed reno/cubic/dctcp cell advanced to its
// first quiescent instant with the helper gate forced to pipe and the
// stage-B schedule to takes (nil: either goroutine claims any batch).
func pipeCell(t *testing.T, pipe int, takes func(int) bool) (*sim.Simulator, *link.Link, []*tcp.Endpoint, *Engine) {
	t.Helper()
	s, l, flows := buildCell(t, 31, 200, 200, 200)
	eng, ok := New(s, l, flows)
	if !ok {
		t.Fatal("engine must build")
	}
	eng.pipe, eng.takes = pipe, takes
	seekQuiescent(t, s, eng)
	return s, l, flows, eng
}

// The forced stage-B schedules: the helper claims every batch, stage A
// claims every batch, or they take turns.
var (
	helperTakes = func(int) bool { return true }
	stageATakes = func(int) bool { return false }
	alternate   = func(g int) bool { return g%2 == 0 }
)

// TestEnginePipelineMatchesInline drives the same seed's cell through the
// hybrid loop without a helper and with one under free work sharing and
// each forced schedule, and requires every flow's window state, goodput and
// signal ledgers, the AQM's p′ and the engine telemetry to agree bit for
// bit with the helperless run. At least one flow enters an epoch frozen in
// fast recovery, so the virtual recovery exit is compared too.
func TestEnginePipelineMatchesInline(t *testing.T) {
	if testing.Short() {
		t.Skip("600-flow cells")
	}
	type world struct {
		s     *sim.Simulator
		l     *link.Link
		flows []*tcp.Endpoint
		eng   *Engine
	}
	modes := []struct {
		name  string
		pipe  int
		takes func(int) bool
	}{{"inline", -1, nil}, {"shared", 1, nil}, {"helper takes all", 1, helperTakes},
		{"stage A takes all", 1, stageATakes}, {"alternate", 1, alternate}}
	w := make([]world, len(modes))
	for k, m := range modes {
		s, l, flows, eng := pipeCell(t, m.pipe, m.takes)
		w[k] = world{s, l, flows, eng}
	}
	frozen := 0
	for step := 0; step < 12; step++ {
		if w[0].eng.Quiescent() {
			for _, f := range w[0].flows {
				if f.FFInRecovery() {
					frozen++
				}
			}
		}
		for _, x := range w {
			if x.eng.TryAdvance(x.s.Now()+time.Second) == 0 {
				x.s.RunUntil(x.s.Now() + 128*time.Millisecond)
			}
		}
		for k := range w[1:] {
			if w[0].s.Now() != w[k+1].s.Now() {
				t.Fatalf("step %d %s: clocks diverged: %v vs %v", step, modes[k+1].name, w[0].s.Now(), w[k+1].s.Now())
			}
		}
	}
	if frozen == 0 {
		t.Fatal("no flow entered an epoch in fast recovery")
	}
	a := w[0].eng
	for k, x := range w[1:] {
		name, b := modes[k+1].name, x.eng
		if a.Epochs < 2 || a.Epochs != b.Epochs || a.ZeroEpochs != b.ZeroEpochs ||
			a.VirtualPkts != b.VirtualPkts || a.FFTime != b.FFTime ||
			a.OverflowPeriods != b.OverflowPeriods || a.OverflowBytes != b.OverflowBytes {
			t.Fatalf("telemetry: inline %d/%d epochs %d pkts %v %d/%g, %s %d/%d epochs %d pkts %v %d/%g",
				a.Epochs, a.ZeroEpochs, a.VirtualPkts, a.FFTime, a.OverflowPeriods, a.OverflowBytes,
				name, b.Epochs, b.ZeroEpochs, b.VirtualPkts, b.FFTime, b.OverflowPeriods, b.OverflowBytes)
		}
		if pa, pb := w[0].l.AQM().(*core.PI2).PPrime(), x.l.AQM().(*core.PI2).PPrime(); pa != pb {
			t.Fatalf("p' = %v inline, %v %s", pa, pb, name)
		}
		for i, fa := range w[0].flows {
			fb := x.flows[i]
			if *fa.State() != *fb.State() || fa.Goodput.Bytes() != fb.Goodput.Bytes() ||
				fa.CongestionEvents() != fb.CongestionEvents() ||
				fa.MarksSeen() != fb.MarksSeen() || fa.CEAcked() != fb.CEAcked() {
				t.Fatalf("flow %d: inline %+v, %s %+v", i, *fa.State(), name, *fb.State())
			}
		}
	}
	t.Logf("%d epochs, %d virtual packets, %d flow-epochs entered in recovery",
		a.Epochs, a.VirtualPkts, frozen)
}

// panicFwd panics in FFDecideN once calls reaches zero.
type panicFwd struct {
	aqm.FastForwarder
	calls int
}

func (p *panicFwd) FFDecideN(ecn packet.ECN, backlog, n int) (int, int, int) {
	if p.calls--; p.calls == 0 {
		panic("stage A")
	}
	return p.FastForwarder.FFDecideN(ecn, backlog, n)
}

// TestEnginePipelinePanics injects a panic into stage A and into a stage-B
// batch run on each goroutine, through engines over one quiescent cell: it
// must reach TryAdvance's caller, where a campaign cell's recover turns it
// into the record's Err, and must leave no helper goroutine behind.
func TestEnginePipelinePanics(t *testing.T) {
	if testing.Short() {
		t.Skip("600-flow cell")
	}
	s, l, flows, engA := pipeCell(t, 1, nil)
	// Stage A: mid-way through the second period's second batch.
	engA.fwd = &panicFwd{engA.fwd, len(flows) + batch + 10}
	// Stage B: whoever claims the second period's third batch finds one of
	// its endpoints gone. The hook runs under the engine's lock before the
	// claim, so the batch's runner sees the nil.
	breakB := func(eng *Engine, helper bool) func(int) bool {
		return func(g int) bool {
			if g == len(eng.done)+2 {
				eng.steps[2*batch+3].ep = nil
			}
			return helper
		}
	}
	engH, _ := New(s, l, flows)
	engH.pipe, engH.takes = 1, breakB(engH, true)
	engS, _ := New(s, l, flows)
	engS.pipe, engS.takes = 1, breakB(engS, false)
	for _, c := range []struct {
		stage string
		eng   *Engine
		want  string
	}{{"A", engA, "stage A"}, {"B on the helper", engH, "nil pointer dereference"},
		{"B on stage A", engS, "nil pointer dereference"}} {
		before := runtime.NumGoroutine()
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), c.want) {
					t.Errorf("stage %s: recovered %v, want %q", c.stage, r, c.want)
				}
			}()
			c.eng.TryAdvance(s.Now() + time.Second)
			t.Errorf("stage %s: TryAdvance returned", c.stage)
		}()
		for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("stage %s: %d goroutines after the panic, %d before", c.stage, n, before)
		}
	}
}

// BenchmarkEpochCrossover times one-virtual-second epochs of the same cell
// with stage A running every stage-B batch (inline) and with a helper
// sharing them (shared), whatever the gate would pick.
// Both modes do the same work to the bit, so their ns/virtual_pkt compare
// directly; DESIGN.md's crossover table is this benchmark's output.
func BenchmarkEpochCrossover(b *testing.B) {
	for _, n := range []int{120, 600, 1200, 2400, 5000} {
		for _, mode := range []struct {
			name string
			pipe int
		}{{"inline", -1}, {"shared", 1}} {
			b.Run(fmt.Sprintf("flows=%d/%s", n, mode.name), func(b *testing.B) {
				s, l, flows := buildCell(b, 1, n/3, n/3, n-2*(n/3))
				eng, _ := New(s, l, flows)
				eng.pipe = mode.pipe
				seekQuiescent(b, s, eng)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if eng.TryAdvance(s.Now()+time.Second) == 0 {
						b.StopTimer()
						seekQuiescent(b, s, eng)
						b.StartTimer()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(eng.VirtualPkts), "ns/virtual_pkt")
			})
		}
	}
}
