package fleet_test

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"pi2/internal/campaign"
	"pi2/internal/fleet"
)

// startTCPHost runs an in-process TCP worker host on a kernel-assigned
// port and returns its address. The listener lives for the remainder of
// the test process (ServeTCP has no stop knob by design — worker hosts are
// killed, not shut down), which is cheap: a handful of parked accepts.
func startTCPHost(t *testing.T) string {
	t.Helper()
	pr, pw := io.Pipe()
	go fleet.ServeTCP("127.0.0.1:0", pw, io.Discard)
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading host announcement: %v", err)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "fleet: listening on "))
	if addr == "" || addr == strings.TrimSpace(line) {
		t.Fatalf("unexpected host announcement %q", line)
	}
	return addr
}

// syncBuf is a goroutine-safe stderr sink for asserting on fleet logs.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestFleetTCPMatchesInProcess extends the byte-identity contract across
// the TCP transport: a -hosts style fleet (one host, two connections)
// produces exactly the in-process records.
func TestFleetTCPMatchesInProcess(t *testing.T) {
	tasks, opt := buildGrid(t, testSpec{N: 9})
	want := stripTiming(campaign.Execute(tasks, opt))

	hosts, err := fleet.ParseHosts(strings.NewReader(startTCPHost(t) + " workers=2\n"))
	if err != nil {
		t.Fatal(err)
	}
	pool := fleet.NewPool(fleet.Config{Hosts: hosts, Stderr: io.Discard})
	t.Cleanup(pool.Close)
	opt.Dispatch = pool
	got := stripTiming(campaign.Execute(tasks, opt))
	sameRecords(t, want, got, false)
}

// TestFleetTCPChaosByteIdentity drives TCP fleets through seeded
// connection chaos — severed links, truncated frames, stalls long enough
// to trip the heartbeat deadline — and requires the records to stay
// byte-identical to the clean in-process run. The chaos exercises the
// whole fault surface at once: requeue, reconnect with backoff, and (via
// stalls) the liveness machinery.
func TestFleetTCPChaosByteIdentity(t *testing.T) {
	tasks, opt := buildGrid(t, testSpec{N: 10})
	want := stripTiming(campaign.Execute(tasks, opt))
	addr := startTCPHost(t)

	for _, seed := range []int64{1, 7, 42} {
		hosts, err := fleet.ParseHosts(strings.NewReader(addr + " workers=2\n"))
		if err != nil {
			t.Fatal(err)
		}
		pool := fleet.NewHookedPool(fleet.Config{Hosts: hosts, Stderr: io.Discard}, func(h *fleet.Hooks) {
			h.Chaos(seed, fleet.ChaosProfile{FailEvery: 20, Stall: 400 * time.Millisecond})
			h.Heartbeat = 50 * time.Millisecond
			h.ReconnectBase = 10 * time.Millisecond
		})
		opt := opt
		opt.Dispatch = pool
		got := stripTiming(campaign.Execute(tasks, opt))
		pool.Close()
		sameRecords(t, want, got, true) // Attempts counts injected crashes
	}
}

// TestFleetChaosStdioByteIdentity runs the same property over the process
// transport, where a severed link cannot redial: slots die, survivors and
// the in-process fallback absorb the queue, records stay identical.
func TestFleetChaosStdioByteIdentity(t *testing.T) {
	tasks, opt := buildGrid(t, testSpec{N: 10})
	want := stripTiming(campaign.Execute(tasks, opt))

	for _, seed := range []int64{3, 11} {
		pool := newChaosPool(t, 2, seed)
		opt := opt
		opt.Dispatch = pool
		got := stripTiming(campaign.Execute(tasks, opt))
		sameRecords(t, want, got, true)
	}
}

// TestFleetDetectsWedgedWorker SIGSTOPs a worker mid-cell: the process is
// alive — its pipes open, its heartbeats silent — so only the read
// deadline can tell. The coordinator must declare it dead within the
// heartbeat budget and re-dispatch its cell through the normal crash path,
// finishing the grid with records identical to in-process.
func TestFleetDetectsWedgedWorker(t *testing.T) {
	tasks, opt := buildGrid(t, testSpec{N: 6, SleepMs: 100})
	want := stripTiming(campaign.Execute(tasks, opt))

	var errlog syncBuf
	pids := make(chan int, 2)
	pool := newPoolWith(t, fleet.Config{Workers: 2, Stderr: &errlog}, func(h *fleet.Hooks) {
		h.Heartbeat = 50 * time.Millisecond // wedge detected within 200 ms
		h.OnSpawn = func(pid int) { pids <- pid }
	})
	opt.Dispatch = pool

	done := make(chan []campaign.RunRecord, 1)
	go func() { done <- stripTiming(campaign.Execute(tasks, opt)) }()

	victim := <-pids
	time.Sleep(120 * time.Millisecond) // mid-cell for both workers
	if err := syscall.Kill(victim, syscall.SIGSTOP); err != nil {
		t.Fatalf("SIGSTOP worker %d: %v", victim, err)
	}
	// The coordinator's disconnect path SIGKILLs the stopped process, so no
	// SIGCONT cleanup is needed — but guard against a hung test anyway.
	var got []campaign.RunRecord
	select {
	case got = <-done:
	case <-time.After(30 * time.Second):
		syscall.Kill(victim, syscall.SIGKILL)
		t.Fatal("campaign did not finish after worker wedge")
	}

	sameRecords(t, want, got, true) // the re-dispatched cell carries extra Attempts
	redispatched := 0
	for _, rec := range got {
		if rec.Err != "" {
			t.Errorf("cell %d failed: %s", rec.Index, rec.Err)
		}
		if rec.Attempts > 1 {
			redispatched++
		}
	}
	if redispatched == 0 {
		t.Error("no record carries Attempts > 1 after the wedge")
	}
	if log := errlog.String(); !strings.Contains(log, "liveness") {
		t.Errorf("stderr lacks a liveness verdict for the wedged worker:\n%s", log)
	}
}

// newPoolWith builds a pool over this test binary's worker mode with an
// arbitrary config (Command/Env filled in unless Hosts is set) and hooks.
func newPoolWith(t *testing.T, cfg fleet.Config, set func(*fleet.Hooks)) *fleet.Pool {
	t.Helper()
	if len(cfg.Hosts) == 0 && len(cfg.Command) == 0 {
		exe, err := os.Executable()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Command = []string{exe}
		cfg.Env = []string{workerEnv + "=1"}
	}
	pool := fleet.NewHookedPool(cfg, set)
	t.Cleanup(pool.Close)
	return pool
}

func newChaosPool(t *testing.T, workers int, seed int64) *fleet.Pool {
	t.Helper()
	return newPoolWith(t, fleet.Config{Workers: workers, Stderr: io.Discard}, func(h *fleet.Hooks) {
		h.Chaos(seed, fleet.ChaosProfile{FailEvery: 25})
	})
}
