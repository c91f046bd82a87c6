// Dualq: the DualPI2 dual-queue extension — the deployment the paper names
// as its end goal (Section 7; later RFC 9332).
//
// A DCTCP flow and a Cubic flow share a 40 Mb/s bottleneck. In the paper's
// single-queue arrangement the Scalable flow must suffer the Classic
// flow's ~20 ms queue. With DualPI2 the L queue keeps Scalable traffic at
// sub-millisecond delay while the coupled controller still balances the
// rates. Run with:
//
//	go run ./examples/dualq
package main

import (
	"fmt"
	"time"

	"pi2/internal/core"
	"pi2/internal/link"
	"pi2/internal/sim"
	"pi2/internal/tcp"
)

func main() {
	s := sim.New(3)
	dispatch := link.NewDispatcher()
	dual := core.NewDualLink(s, 40e6, core.DualConfig{}, dispatch.Deliver)

	newFlow := func(id int, cc tcp.CongestionControl, mode tcp.ECNMode) *tcp.Endpoint {
		ep := tcp.NewWithEnqueuer(s, dual.Enqueue, tcp.Config{
			ID: id, CC: cc, ECN: mode, BaseRTT: 10 * time.Millisecond,
		})
		dispatch.Register(id, ep.DeliverData)
		ep.Start()
		return ep
	}
	cubic := newFlow(1, &tcp.Cubic{}, tcp.ECNOff)
	dctcp := newFlow(2, &tcp.DCTCP{}, tcp.ECNScalable)

	s.RunUntil(60 * time.Second)
	now := s.Now()

	lMarks, cMarks := dual.Marks()
	fmt.Println("DualPI2: 1 Cubic (C queue) + 1 DCTCP (L queue), 40 Mb/s, RTT 10 ms")
	fmt.Printf("  cubic: %.2f Mb/s   dctcp: %.2f Mb/s   ratio %.2f\n",
		cubic.Goodput.RateBps(now)/1e6, dctcp.Goodput.RateBps(now)/1e6,
		cubic.Goodput.RateBps(now)/dctcp.Goodput.RateBps(now))
	fmt.Printf("  L-queue delay: mean %.3f ms, p99 %.3f ms\n",
		dual.LSojourn.Mean()*1e3, dual.LSojourn.Percentile(99)*1e3)
	fmt.Printf("  C-queue delay: mean %.3f ms, p99 %.3f ms\n",
		dual.CSojourn.Mean()*1e3, dual.CSojourn.Percentile(99)*1e3)
	fmt.Printf("  marks: L=%d C=%d drops=%d utilization=%.1f %%\n",
		lMarks, cMarks, dual.TotalDrops(), dual.Utilization()*100)
	fmt.Println("\nThe Scalable flow keeps its throughput share at a fraction of the")
	fmt.Println("Classic queuing delay — the step the single-queue paper points toward.")
}
