package fleet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// chaosCrashBudget replaces Retries+1 as the per-cell crash budget under
// chaos: injected connection faults charge the same ledger as real worker
// deaths, and the default budget would starve real campaigns' cells long
// before the chaos proves anything.
const chaosCrashBudget = 63

// Chaos arms h to wrap every dialed connection in a flakyConn seeded from
// (seed, slot, dial), and raises the crash budget to chaosCrashBudget.
func (h *Hooks) Chaos(seed int64, prof ChaosProfile) {
	h.Wrap = func(c Conn, slot, dial int) Conn {
		return newFlakyConn(c, seed^int64(uint64(slot)*0x9E3779B97F4A7C15)^int64(dial)<<32, prof)
	}
	h.CrashBudget = chaosCrashBudget
}

// flakyConn injects connection chaos between the coordinator and a worker:
// seeded, per-operation draws decide whether a read or write proceeds,
// stalls, truncates, or severs the link. It exists to prove the fault
// paths, not to model a network — every injected failure must be absorbed
// by the handshake/requeue/redial machinery with records byte-identical to
// `-jobs 1`, which is exactly what the chaos tests assert.
//
// Failure modes drawn per operation:
//   - severed read/write: the underlying conn is closed mid-protocol, so
//     the peer sees a mid-frame truncation — the torn-frame case;
//   - partial write: a prefix of the frame is written before the sever,
//     so the peer reads a short frame — the corrupted-frame case;
//   - stall: the operation sleeps past the heartbeat deadline, so the
//     coordinator's liveness machinery (not an error) must catch it.
type flakyConn struct {
	Conn
	mu  sync.Mutex
	rng *rand.Rand

	pFail    float64       // per-op probability of severing the link
	pPartial float64       // given a write failure, chance of a partial write first
	pStall   float64       // per-op probability of stalling instead
	stallFor time.Duration // stall duration (0 disables stalls)

	severed bool
}

// ChaosProfile tunes flakyConn. The zero value is replaced by defaults
// gentle enough that campaigns converge under the default crash budgets.
type ChaosProfile struct {
	// FailEvery is the expected number of operations between severed
	// connections (default 40).
	FailEvery int
	// Stall is how long a stalled operation sleeps; 0 disables stall
	// injection. Pair it with a Hooks.Heartbeat below Stall/hbReadFactor
	// to exercise the liveness deadline.
	Stall time.Duration
}

// newFlakyConn wraps c with seeded chaos. Each connection gets its own
// rand stream so re-dials misbehave independently but reproducibly.
func newFlakyConn(c Conn, seed int64, prof ChaosProfile) *flakyConn {
	failEvery := prof.FailEvery
	if failEvery <= 0 {
		failEvery = 40
	}
	f := &flakyConn{
		Conn:     c,
		rng:      rand.New(rand.NewSource(seed)),
		pFail:    1 / float64(failEvery),
		pPartial: 0.5,
		stallFor: prof.Stall,
	}
	if prof.Stall > 0 {
		f.pStall = f.pFail / 2
	}
	return f
}

// draw rolls the per-operation dice under the lock (Read and Write run on
// different goroutines in the coordinator).
func (f *flakyConn) draw() (sever, partial, stall bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.severed {
		return false, false, false // underlying conn already errors
	}
	switch r := f.rng.Float64(); {
	case r < f.pFail:
		return true, f.rng.Float64() < f.pPartial, false
	case r < f.pFail+f.pStall:
		return false, false, true
	}
	return false, false, false
}

func (f *flakyConn) sever() {
	f.mu.Lock()
	f.severed = true
	f.mu.Unlock()
	f.Conn.Close()
}

func (f *flakyConn) Read(p []byte) (int, error) {
	sever, _, stall := f.draw()
	if stall {
		time.Sleep(f.stallFor)
	}
	if sever {
		f.sever()
		return 0, fmt.Errorf("fleet chaos: injected read failure")
	}
	return f.Conn.Read(p)
}

func (f *flakyConn) Write(p []byte) (int, error) {
	sever, partial, stall := f.draw()
	if stall {
		time.Sleep(f.stallFor)
	}
	if sever {
		n := 0
		if partial && len(p) > 1 {
			f.mu.Lock()
			cut := 1 + f.rng.Intn(len(p)-1)
			f.mu.Unlock()
			n, _ = f.Conn.Write(p[:cut])
		}
		f.sever()
		return n, fmt.Errorf("fleet chaos: injected write failure")
	}
	return f.Conn.Write(p)
}
