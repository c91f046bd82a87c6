package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"pi2/internal/aqm"
	"pi2/internal/campaign"
	"pi2/internal/core"
	"pi2/internal/fleet"
	"pi2/internal/fq"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
	"pi2/internal/tcp"
)

// Probes are tight loops over one layer's public API. They are the
// per-layer numbers a change to that layer moves first; README.md maps each
// onto the end-to-end metric and workload it should move next. Iteration
// counts are sized so each timing lasts tens of milliseconds, and every
// probe reports the median of three timings.

// perOp times fn(n) and returns nanoseconds per operation.
func perOp(n int, fn func(n int)) float64 {
	t0 := time.Now()
	fn(n)
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// --- sim ---

// simWithTimers returns a simulator holding depth self-rescheduling timers
// with co-prime-ish periods, so the heap keeps reshuffling at that depth —
// the shape flows × (pacing, RTO, ACK) timers give the heavy cells.
func simWithTimers(depth int) *sim.Simulator {
	s := sim.New(1)
	for i := 0; i < depth; i++ {
		iv := time.Duration(1+i%97) * time.Microsecond
		var fn sim.Event
		fn = func() { s.After(iv, fn) }
		s.After(iv, fn)
	}
	return s
}

func probeSimEvent(depth, n int) float64 {
	s := simWithTimers(depth)
	step := func(n int) {
		for i := 0; i < n; i++ {
			s.Step()
		}
	}
	step(n / 4) // past the initial all-at-once ordering
	return medianOf3(func() float64 { return perOp(n, step) })
}

func nop() {}

// probeTimerChurn is the schedule/cancel/fire mix the transports generate:
// per op two timers scheduled, one stopped, one fired.
func probeTimerChurn(n int) float64 {
	s := sim.New(1)
	for i := 0; i < 64; i++ {
		s.After(time.Duration(i)*time.Microsecond, nop)
	}
	s.Run()
	return medianOf3(func() float64 {
		return perOp(n, func(n int) {
			for i := 0; i < n; i++ {
				s.After(time.Microsecond, nop)
				s.After(2*time.Microsecond, nop).Stop()
				s.Run()
			}
		})
	})
}

// probeShiftPending prices one fast-forward commit's time shift of every
// pending event, in microseconds per call.
func probeShiftPending(depth, calls int) float64 {
	s := simWithTimers(depth)
	return medianOf3(func() float64 {
		return perOp(calls, func(n int) {
			for i := 0; i < n; i++ {
				s.ShiftPending(time.Microsecond)
			}
		})
	}) / 1e3
}

// probeCrossMsg bounces packets between two PDES domains; each hop is a Send
// plus its share of the lookahead window and barrier merge that deliver it.
func probeCrossMsg(n int) float64 {
	const (
		hop      = time.Millisecond
		inFlight = 64 // messages per window, so the barrier is amortized as in a real cell
	)
	return medianOf3(func() float64 {
		co := sim.NewCoordinator(1, 2, hop)
		var toA, toB func(*packet.Packet)
		toA = func(p *packet.Packet) { co.Domain(0).Send(1, hop, p, toB) }
		toB = func(p *packet.Packet) { co.Domain(1).Send(0, hop, p, toA) }
		pool := co.Domain(0).Sim().PacketPool()
		for i := 0; i < inFlight; i++ {
			toA(pool.NewData(1, int64(i), packet.MSS, packet.NotECT))
		}
		return perOp(n, func(n int) { co.RunUntil(time.Duration(n/inFlight) * hop) })
	})
}

// --- packet ---

func probePacketRecycle(n int) float64 {
	pool := sim.New(1).PacketPool()
	pool.Release(pool.NewData(1, 0, packet.MSS, packet.ECT0))
	pool.Release(pool.NewAck(1, 0))
	return medianOf3(func() float64 {
		return perOp(n, func(n int) {
			for i := 0; i < n; i++ {
				d := pool.NewData(1, int64(i), packet.MSS, packet.ECT0)
				a := pool.NewAck(1, int64(i))
				pool.Release(d)
				pool.Release(a)
			}
		})
	})
}

// --- link / core / fq: the full enqueue → serialize → deliver path ---

// bottleneck builds one of the transmit machines on s and returns its
// ingress; deliver is the terminal owner of every packet that gets through.
type bottleneck func(s *sim.Simulator, deliver func(*packet.Packet)) func(*packet.Packet)

func singleQueue(newAQM func(*rand.Rand) aqm.AQM) bottleneck {
	return func(s *sim.Simulator, deliver func(*packet.Packet)) func(*packet.Packet) {
		return link.New(s, link.Config{RateBps: 1e12, AQM: newAQM(s.RNG())}, deliver).Enqueue
	}
}

var bottlenecks = map[string]bottleneck{
	"link.ns_per_pkt.taildrop": singleQueue(func(*rand.Rand) aqm.AQM { return nil }),
	"link.ns_per_pkt.pi2":      singleQueue(func(r *rand.Rand) aqm.AQM { return core.New(core.Config{}, r) }),
	"link.ns_per_pkt.pie":      singleQueue(func(r *rand.Rand) aqm.AQM { return aqm.NewPIE(aqm.DefaultPIEConfig(), r) }),
	"core.ns_per_pkt.dualpi2": func(s *sim.Simulator, deliver func(*packet.Packet)) func(*packet.Packet) {
		return core.NewDualLink(s, 1e12, core.DualConfig{}, deliver).Enqueue
	},
	"fq.ns_per_pkt.fqcodel": func(s *sim.Simulator, deliver func(*packet.Packet)) func(*packet.Packet) {
		return fq.New(s, fq.Config{RateBps: 1e12}, deliver).Enqueue
	},
}

// probePacketPath pushes n packets (64 flows, alternating Classic and
// Scalable codepoints) through a bottleneck fast enough never to queue.
func probePacketPath(b bottleneck, n int) float64 {
	s := sim.New(1)
	pool := s.PacketPool()
	enq := b(s, pool.Release)
	return medianOf3(func() float64 {
		return perOp(n, func(n int) {
			for i := 0; i < n; i++ {
				ecn := packet.NotECT
				if i%2 == 1 {
					ecn = packet.ECT1
				}
				enq(pool.NewData(1+i%64, int64(i), packet.MSS, ecn))
				if i%64 == 63 {
					// 64 × 12 ns of serialization; the AQMs' update tickers
					// never let the event queue run dry, so advance by time.
					s.RunUntil(s.Now() + time.Microsecond)
				}
			}
		})
	})
}

// --- aqm: the bare decision and the periodic update ---

// standingQueue is a QueueInfo frozen at a loaded operating point, so the
// controllers hold a live probability instead of short-circuiting at p = 0.
type standingQueue struct{ sojourn time.Duration }

func (standingQueue) BacklogBytes() int                         { return 100000 }
func (standingQueue) BacklogPackets() int                       { return 67 }
func (q standingQueue) HeadSojourn(time.Duration) time.Duration { return q.sojourn }
func (standingQueue) CapacityBps() float64                      { return 10e6 }

const tUpdate = 32 * time.Millisecond

// warmed drives a controller's update law against the standing queue until
// it holds a steady non-zero probability.
func warmed[A aqm.AQM](a A) A {
	for i := 0; i < 100; i++ {
		a.Update(standingQueue{30 * time.Millisecond}, time.Duration(i)*tUpdate)
	}
	return a
}

func warmedPI2() *core.PI2 {
	return warmed(core.New(core.Config{}, rand.New(rand.NewSource(1))))
}

func warmedPIE() *aqm.PIE {
	cfg := aqm.DefaultPIEConfig()
	// The rate estimator has no dequeue feed in a probe and would leave p at 0.
	cfg.Estimator = aqm.EstimateBySojourn
	return warmed(aqm.NewPIE(cfg, rand.New(rand.NewSource(1))))
}

func probeDecision(which string, n int) float64 {
	var qi aqm.QueueInfo = standingQueue{30 * time.Millisecond}
	p := packet.NewData(1, 0, packet.MSS, packet.NotECT)
	var decide func(now time.Duration)
	switch which {
	case "pi2":
		a := warmedPI2()
		decide = func(now time.Duration) { a.Enqueue(p, qi, now) }
	case "pie":
		a := warmedPIE()
		decide = func(now time.Duration) { a.Enqueue(p, qi, now) }
	case "codel":
		a := aqm.NewCoDel(aqm.CoDelConfig{})
		decide = func(now time.Duration) { a.DequeueVerdict(p, qi, now) }
	}
	return medianOf3(func() float64 {
		return perOp(n, func(n int) {
			for i := 0; i < n; i++ {
				decide(time.Duration(i) * time.Microsecond)
			}
		})
	})
}

func probeUpdate(a aqm.AQM, n int) float64 {
	var qi aqm.QueueInfo = standingQueue{25 * time.Millisecond}
	return medianOf3(func() float64 {
		return perOp(n, func(n int) {
			for i := 0; i < n; i++ {
				a.Update(qi, time.Duration(i)*tUpdate)
			}
		})
	})
}

// --- tcp ---

var (
	ackCCs      = []string{"reno", "cubic", "dctcp", "prague", "scalable"}
	ackMarkPcts = []int{0, 5, 30}
)

// probeAcks is the per-ACK congestion-control cost as one table: every CC
// at every marking rate, driven through the public CongestionControl
// interface the way an endpoint drives it. A Scalable control sees each mark
// as per-ACK CE feedback; a Classic one reacts at most once per window of
// ACKs through OnCongestionEvent. Returns ns per ACK by metric name, and how
// many heap objects the timed loops allocated (they must allocate none).
func probeAcks(n int) (map[string]float64, uint64) {
	out := map[string]float64{}
	var allocated uint64
	for _, name := range ackCCs {
		for _, pct := range ackMarkPcts {
			cc, mode, err := tcp.NewCC(name)
			if err != nil {
				panic(err) // the table above only names registered controls
			}
			st := &tcp.State{Cwnd: 20, Ssthresh: 10, MinCwnd: 2}
			cc.Init(st)
			st.SRTT = 10 * time.Millisecond
			var una, nxt int64 = 0, 20
			tcp.BindSeq(cc, &una, &nxt)
			accurate := mode == tcp.ECNScalable
			sinceEvent, i := 0, 0
			loop := func(n int) {
				for end := i + n; i < end; i++ {
					now := time.Duration(i) * 500 * time.Microsecond
					if una++; una%20 == 0 {
						nxt += 20
					}
					ce := i*pct%100 < pct
					if sinceEvent++; ce && !accurate && float64(sinceEvent) >= st.Cwnd {
						cc.OnCongestionEvent(st, now)
						sinceEvent = 0
					}
					cc.OnAck(st, 1, ce && accurate, now)
				}
			}
			out[fmt.Sprintf("tcp.ns_per_ack.%s.m%d", name, pct)] = medianOf3(func() float64 { return perOp(n, loop) })
			before := mallocs()
			loop(n)
			allocated += mallocs() - before
		}
	}
	return out, allocated
}

// probeSegment runs one Reno endpoint over an ideal link — delivery is a
// direct call, with every 500th segment lost so the window stays bounded —
// and returns ns per segment offered: send, receive, ACK and the sender's
// ACK processing, with no bottleneck in the way.
func probeSegment(n int) float64 {
	return medianOf3(func() float64 {
		s := sim.New(1)
		pool := s.PacketPool()
		var ep *tcp.Endpoint
		sent := 0
		ep = tcp.NewWithEnqueuer(s, func(p *packet.Packet) {
			if sent++; sent%500 == 0 {
				pool.Release(p)
				return
			}
			ep.DeliverData(p)
		}, tcp.Config{ID: 1, CC: tcp.Reno{}, BaseRTT: time.Millisecond})
		ep.Start()
		t0 := time.Now()
		for sent < n {
			s.RunUntil(s.Now() + 10*time.Millisecond)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(sent)
	})
}

// probeNewEndpoint is per-flow set-up: construct, register, schedule Start.
func probeNewEndpoint(n int) float64 {
	return medianOf3(func() float64 {
		s := sim.New(1)
		d := link.NewDispatcher()
		l := link.New(s, link.Config{RateBps: 1e9}, d.Deliver)
		return perOp(n, func(n int) {
			for id := 1; id <= n; id++ {
				ep := tcp.New(s, l, tcp.Config{ID: id, CC: &tcp.Cubic{}, BaseRTT: 10 * time.Millisecond})
				d.Register(id, ep.DeliverData)
				s.At(0, ep.Start)
			}
		})
	}) / 1e3
}

// --- stats ---

// delays is a fixed set of plausible queue delays (seconds) around 20 ms.
var delays = func() []float64 {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = 0.020 * (0.5 + r.Float64())
	}
	return xs
}()

func probeAdd(add func(float64), n int) float64 {
	return medianOf3(func() float64 {
		return perOp(n, func(n int) {
			for i := 0; i < n; i++ {
				add(delays[i%len(delays)])
			}
		})
	})
}

// probeSamplePercentile is the exact collector's deferred cost: the sort
// behind the first percentile of n observations, in milliseconds.
func probeSamplePercentile(n int) float64 {
	return medianOf3(func() float64 {
		r := rand.New(rand.NewSource(1))
		var s stats.Sample
		for i := 0; i < n; i++ {
			s.Add(r.Float64())
		}
		t0 := time.Now()
		s.Percentile(99)
		return time.Since(t0).Seconds() * 1e3
	})
}

// --- campaign / fleet ---

// emptyResult is what an empty cell returns across the fleet wire.
type emptyResult struct{ V int64 }

// "benchempty" is a matrix of n cells that do nothing, so executing it
// prices the engine and the wire alone. It is registered in this binary,
// which is also its own fleet worker.
func init() {
	campaign.RegisterWireType(emptyResult{})
	campaign.RegisterSource("benchempty", func(raw []byte) ([]campaign.Task, error) {
		var sp struct{ N int }
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, err
		}
		tasks := make([]campaign.Task, sp.N)
		for i := range tasks {
			tasks[i] = campaign.Task{Name: "benchempty", SeedIndex: i,
				Run: func(tc *campaign.TaskCtx) any { return emptyResult{V: tc.Seed} }}
		}
		return tasks, nil
	})
}

// emptyCells runs n empty cells through dispatch (nil = the in-process
// pool) and returns microseconds per cell.
func emptyCells(n int, dispatch campaign.Dispatcher) (float64, error) {
	tasks, spec, err := buildMatrix("benchempty", map[string]any{"N": n})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	recs := campaign.Execute(tasks, campaign.ExecOptions{
		Jobs: 1, BaseSeed: 1, Family: "benchempty", Spec: spec, Dispatch: dispatch})
	us := time.Since(t0).Seconds() * 1e6 / float64(n)
	if s := summarize(recs); s.failed > 0 {
		return 0, fmt.Errorf("empty cells failed: %v", s.problems)
	}
	return us, nil
}

// probeFleetStdio spawns one stdio worker and reports the time to its first
// record (spawn + handshake + init + one empty cell, ms) and then the
// steady per-cell protocol cost (µs).
func probeFleetStdio(n int) (spawnMs, usPerCell float64, err error) {
	argv, err := workerCommand()
	if err != nil {
		return 0, 0, err
	}
	pool := fleet.NewPool(fleet.Config{Workers: 1, Command: argv})
	defer pool.Close()
	first, err := emptyCells(1, pool)
	if err != nil {
		return 0, 0, err
	}
	usPerCell, err = emptyCells(n, pool)
	return first / 1e3, usPerCell, err
}

// probeFleetTCP is the same empty cell over the TCP transport on loopback:
// this binary is started as a worker host, dialed once, warmed, then timed.
func probeFleetTCP(n int) (float64, error) {
	host, err := startChild("tcp worker host", "-serve", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer func() {
		host.cmd.Process.Kill()
		host.cmd.Wait()
	}()
	var addr string
	if !host.out.Scan() {
		return 0, fmt.Errorf("worker host announced no address")
	}
	if _, err := fmt.Sscanf(host.out.Text(), "fleet: listening on %s", &addr); err != nil {
		return 0, fmt.Errorf("worker host announcement %q: %w", host.out.Text(), err)
	}
	pool := fleet.NewPool(fleet.Config{Hosts: []fleet.Host{{Addr: addr, Workers: 1}}, Stderr: os.Stderr})
	defer pool.Close()
	if _, err := emptyCells(1, pool); err != nil {
		return 0, err
	}
	return emptyCells(n, pool)
}

// probeRecordWire prices the gob payload real sweep records travel in:
// mean encoded size (bytes) and per-record encode/decode time (µs).
func probeRecordWire(recs []campaign.RunRecord) (size, encodeUs, decodeUs float64, err error) {
	blobs := make([][]byte, len(recs))
	enc := medianOf3(func() float64 {
		return perOp(len(recs), func(int) {
			for i := range recs {
				if blobs[i], err = campaign.EncodeRecord(&recs[i]); err != nil {
					return
				}
			}
		})
	})
	if err != nil {
		return 0, 0, 0, err
	}
	var total int
	for _, b := range blobs {
		total += len(b)
	}
	dec := medianOf3(func() float64 {
		return perOp(len(blobs), func(int) {
			for _, b := range blobs {
				if _, err = campaign.DecodeRecord(b); err != nil {
					return
				}
			}
		})
	})
	return float64(total) / float64(len(recs)), enc / 1e3, dec / 1e3, err
}

// probeJournal appends real records to a crash-safe journal (one fsync
// each) and returns microseconds per append.
func probeJournal(recs []campaign.RunRecord, path string) (float64, error) {
	defer os.Remove(path)
	j, err := fleet.OpenJournal(path, os.Stderr)
	if err != nil {
		return 0, err
	}
	j.BeginSegment("sweep", nil, len(recs))
	ns := perOp(len(recs), func(int) {
		for _, r := range recs {
			j.Record(r)
		}
	})
	return ns / 1e3, j.Close()
}
