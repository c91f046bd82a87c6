package experiments

import (
	"math"
	"testing"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/link"
	"pi2/internal/packet"
	"pi2/internal/sim"
	"pi2/internal/stats"
)

// TestWarmUpResetsEveryBottleneck runs one scenario through Run over each
// bottleneck shape and holds its window statistics to what the packets
// delivered after the warm-up boundary show. The flows start halfway to the
// boundary, so a statistic that also covers the pre-window traffic (or the
// idle link before it) is visibly off. DualPI2 keeps its L queue's sojourn
// collector apart from the C queue's, as the dualq table does: only the
// discipline's own reset restarts both.
func TestWarmUpResetsEveryBottleneck(t *testing.T) {
	const rate = 40e6
	for _, arrangement := range []string{"pi2", "dualpi2", "fq-codel"} {
		t.Run(arrangement, func(t *testing.T) {
			dur, warm := 10*time.Second, 4*time.Second
			sc := Scenario{
				Seed:        3,
				LinkRateBps: rate,
				Duration:    dur,
				WarmUp:      warm,
			}
			for _, b := range bulkPair(1, 1, 10*time.Millisecond) {
				b.StartAt = warm / 2
				sc.Bulk = append(sc.Bulk, b)
			}
			lSoj := sc.setArrangement(arrangement)
			if sc.Bottleneck == nil {
				// Run's default FIFO under NewAQM, built as Run builds it.
				newAQM := sc.NewAQM
				sc.Bottleneck = func(s *sim.Simulator, cfg link.Config, deliver func(*packet.Packet)) (*link.Link, func()) {
					cfg.AQM = newAQM(s.RNG())
					l := link.New(s, cfg, deliver)
					return l, l.ResetStats
				}
			}
			// Observe the built link and every packet it delivers.
			var (
				l                 *link.Link
				bits, ce, preMark int
				backlogAtWarm     int
			)
			build := sc.Bottleneck
			sc.Bottleneck = func(ls *sim.Simulator, cfg link.Config, deliver func(*packet.Packet)) (*link.Link, func()) {
				var reset func()
				l, reset = build(ls, cfg, func(p *packet.Packet) {
					if ls.Now() >= warm {
						bits += 8 * int(p.WireLen)
						if p.ECN == packet.CE {
							ce++
						}
					}
					deliver(p)
				})
				// Scheduled before Run's warm-up event, so it fires first.
				ls.At(warm, func() {
					preMark = l.Marks()
					backlogAtWarm = l.BacklogPackets()
				})
				return l, reset
			}
			r := Run(sc)

			soj := []stats.Quantiler{r.Sojourn}
			if lSoj != nil {
				soj = append(soj, lSoj)
			}
			n := 0
			for _, q := range soj {
				n += q.N()
			}
			if n != l.Dequeues() {
				t.Errorf("sojourn collectors hold %d samples, the window dequeued %d packets", n, l.Dequeues())
			}
			if preMark == 0 {
				t.Fatalf("no marks before warm-up: the pre-window traffic proves nothing")
			}
			// One packet in service at each edge of the window, and packets
			// marked on admission but still queued at either edge.
			slack := backlogAtWarm + l.BacklogPackets() + 2
			if d := r.Marks - ce; d < -slack || d > slack {
				t.Errorf("marks = %d, %d CE-marked packets delivered in the window (slack %d)", r.Marks, ce, slack)
			}
			window := (dur - warm).Seconds()
			want := float64(bits) / (rate * window)
			if tol := 2 * 8 * packet.FullLen / (rate * window); math.Abs(r.Utilization-want) > tol {
				t.Errorf("utilization = %.5f, the window delivered %.5f of capacity", r.Utilization, want)
			}
		})
	}
}

// TestTargetReachesDualPI2 holds the -target knob to its promise on the
// DualPI2 arms of the heavy and chaos tiers: a 30 ms target must hold a
// longer queue than a 10 ms one.
func TestTargetReachesDualPI2(t *testing.T) {
	qMean := func(target time.Duration, heavy bool) float64 {
		o := campaign.Options{Grid: campaign.Grid{Quick: true, TimeDiv: 10, Target: target}}
		tc := &campaign.TaskCtx{Seed: 7}
		if heavy {
			return runHeavyCell(o, tc, 10, "dualpi2").QMeanMs
		}
		return runChaosCell(o, tc, "flap", "dualpi2").QMeanMs
	}
	for _, heavy := range []bool{true, false} {
		lo, hi := qMean(10*time.Millisecond, heavy), qMean(30*time.Millisecond, heavy)
		t.Logf("heavy=%v: q_mean %.2f ms at a 10 ms target, %.2f ms at 30 ms", heavy, lo, hi)
		if hi <= lo {
			t.Errorf("heavy=%v: q_mean %.2f ms at a 30 ms target, not above %.2f ms at 10 ms", heavy, hi, lo)
		}
	}
}
