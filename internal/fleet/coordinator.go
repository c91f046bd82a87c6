package fleet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"pi2/internal/campaign"
)

// Config describes a worker fleet.
type Config struct {
	// Workers is the number of local worker processes (min 1). Ignored
	// when Hosts is set.
	Workers int
	// Command is the argv spawning one local worker; it must speak the
	// fleet protocol on stdin/stdout. Default: the running binary with
	// -worker appended, i.e. []string{os.Executable(), "-worker"}.
	Command []string
	// Env is appended to the parent environment for each local worker.
	Env []string
	// Hosts, when non-empty, replaces local workers with TCP connections
	// to `pi2bench -serve` hosts: each Host contributes Host.Workers
	// slots.
	Hosts []Host
	// Stderr receives the workers' stderr, each line prefixed [w<pid>]
	// (default os.Stderr): cell panics are caught inside the worker, so
	// anything here is diagnostic.
	Stderr io.Writer
}

// hooks are the knobs only tests set (export_test.go).
type hooks struct {
	// Heartbeat is the interval workers emit liveness messages at while a
	// cell runs; the coordinator declares a worker dead after
	// hbReadFactor silent intervals (default 1s, so detection within 4s).
	// ReconnectBase is the first backoff step between redials (100ms).
	Heartbeat, ReconnectBase time.Duration
	// OnSpawn observes each worker process ID as its connection
	// handshakes — the crash-recovery tests use it to aim their signals.
	OnSpawn func(pid int)
	// Wrap, if set, wraps each dialed connection; dial counts the slot's
	// dials from 1. The connection-chaos tests inject faults there and
	// raise CrashBudget, the floor on the per-cell crash budget, so the
	// injected faults don't exhaust a campaign's Retries+1.
	Wrap        func(c Conn, slot, dial int) Conn
	CrashBudget int
}

const (
	handshakeTimeout  = 10 * time.Second // bounds the hello and ready reads
	reconnectAttempts = 6                // redials of a broken link before its slot is dismissed
	reconnectCap      = 3 * time.Second  // cap on the exponential backoff between redials

	// deadlineMargin pads the coordinator's total-cell deadline past the
	// worker-side watchdog budget (Timeout+Grace): the worker's own
	// watchdog must get every fair chance to return a TimedOut record
	// before the coordinator declares the worker itself wedged.
	deadlineMargin = 10 * time.Second
)

// Pool is a fleet coordinator: it implements campaign.Dispatcher over a
// set of persistent worker links — spawned child processes (stdio) or
// remote `pi2bench -serve` hosts (TCP). Links are established lazily on
// the first Dispatch and re-initialized (not re-dialed) for each
// subsequent matrix, so a multi-experiment invocation pays connection
// setup once.
type Pool struct {
	cfg   Config
	hooks hooks

	mu      sync.Mutex
	workers []*worker
	spawned bool
}

// worker is one coordinator-side slot. Its connection fields are owned by
// the goroutine driving it during a Dispatch; dead transitions once.
type worker struct {
	tr   Transport
	slot int

	conn  Conn
	c     *wire
	pid   int
	dials int
	dead  bool
}

// NewPool builds a pool; no connections open until the first Dispatch.
func NewPool(cfg Config) *Pool {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	return &Pool{cfg: cfg, hooks: hooks{Heartbeat: defaultHeartbeat, ReconnectBase: 100 * time.Millisecond}}
}

// Close severs every link. For local workers, closing stdin asks for a
// clean exit and Kill covers the ones that don't (procConn.Close); remote
// hosts just see the connection drop and keep serving other coordinators.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if w.conn != nil {
			w.conn.Close()
			w.conn = nil
		}
	}
	p.workers = nil
	p.spawned = false
}

// buildSlotsLocked materializes the worker slots (without dialing).
func (p *Pool) buildSlotsLocked() {
	if p.spawned {
		return
	}
	p.spawned = true
	if len(p.cfg.Hosts) > 0 {
		slot := 0
		for _, h := range p.cfg.Hosts {
			for i := 0; i < h.Workers; i++ {
				p.workers = append(p.workers, &worker{
					tr: &tcpTransport{addr: h.Addr}, slot: slot,
				})
				slot++
			}
		}
		return
	}
	argv := p.cfg.Command
	if len(argv) == 0 {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(p.cfg.Stderr, "fleet: cannot locate own binary (%v); campaign runs in-process\n", err)
			return
		}
		argv = []string{exe, "-worker"}
	}
	for i := 0; i < p.cfg.Workers; i++ {
		p.workers = append(p.workers, &worker{
			tr:   &procTransport{argv: argv, env: p.cfg.Env, stderr: p.cfg.Stderr},
			slot: i,
		})
	}
}

// permErr marks a failure that redialing cannot fix: protocol or binary
// drift, an unknown task family, a matrix-size disagreement. Slots failing
// permanently are dismissed without burning reconnect attempts.
type permErr struct{ error }

// establish dials the slot's transport and performs the connection
// handshake: the worker speaks first with hello{proto, fingerprint, pid},
// and a drifted binary is rejected here — explicitly, before any matrix
// state — rather than surfacing as a matrix-size heuristic later.
func (p *Pool) establish(w *worker) error {
	conn, err := w.tr.Dial()
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	w.dials++
	if p.hooks.Wrap != nil {
		conn = p.hooks.Wrap(conn, w.slot, w.dials)
	}
	c := newWire(conn)
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	hello, err := c.recv()
	switch {
	case errors.Is(err, errFrameSize):
		err = permErr{fmt.Errorf("protocol drift: worker hello is no v%d frame (%v); a pre-v3 worker speaks NDJSON — rebuild and redeploy one binary",
			ProtoVersion, err)}
	case err != nil:
		err = fmt.Errorf("read hello: %w", err)
	case hello.Type != "hello":
		err = permErr{fmt.Errorf("handshake: got %q, want hello (pre-handshake worker?)", hello.Type)}
	default:
		if d := drift("worker", "coordinator", hello.Proto, hello.FP); d != "" {
			err = permErr{errors.New(d)}
		}
	}
	if err != nil {
		conn.Close()
		return err
	}
	conn.SetReadDeadline(time.Time{})
	w.conn, w.c, w.pid = conn, c, hello.Pid
	if p.hooks.OnSpawn != nil {
		p.hooks.OnSpawn(hello.Pid)
	}
	return nil
}

// tryInit (re)establishes the link if needed and initializes the worker
// for this matrix.
func (p *Pool) tryInit(w *worker, tasks []campaign.Task, opt campaign.ExecOptions) error {
	if w.conn == nil {
		if err := p.establish(w); err != nil {
			return err
		}
	}
	m := initMsg(opt)
	m.Heartbeat = p.hooks.Heartbeat
	if err := w.c.send(m); err != nil {
		return fmt.Errorf("init write: %w", err)
	}
	// Matrix building is cheap (a registered source decoding a small
	// spec); a generous multiple of the handshake budget bounds it.
	w.conn.SetReadDeadline(time.Now().Add(3 * handshakeTimeout))
	ready, err := w.c.recv()
	if err != nil {
		return fmt.Errorf("init read: %w", err)
	}
	w.conn.SetReadDeadline(time.Time{})
	switch {
	case ready.Type != "ready":
		return permErr{fmt.Errorf("protocol: got %q, want ready", ready.Type)}
	case ready.Err != "":
		return permErr{errors.New(ready.Err)}
	case ready.Tasks != len(tasks):
		return permErr{fmt.Errorf("matrix size mismatch: worker built %d tasks, coordinator has %d",
			ready.Tasks, len(tasks))}
	}
	return nil
}

// backoff returns the wait before reconnect attempt k: capped exponential
// with ±50% jitter, so a rebooting host isn't hammered in lockstep by
// every slot that lost a connection to it.
func (p *Pool) backoff(attempt int) time.Duration {
	d := p.hooks.ReconnectBase << attempt
	if d <= 0 || d > reconnectCap {
		d = reconnectCap
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// connect brings one slot to a ready state for this matrix: it dials if
// the link is down, handshakes and inits. A failed attempt redials with
// capped backoff + jitter while the transport supports it; connect gives
// up, reporting why, when the failure is permanent (drift), the attempts
// are exhausted, or done closes while it waits (the grid drained: nothing
// left to rejoin for).
func (p *Pool) connect(w *worker, tasks []campaign.Task, opt campaign.ExecOptions, done <-chan struct{}) error {
	for attempt := 0; ; attempt++ {
		err := p.tryInit(w, tasks, opt)
		if err == nil {
			return nil
		}
		p.disconnect(w, fmt.Sprintf("init: %v", err))
		if errors.As(err, new(permErr)) || !w.tr.Redial() || attempt >= reconnectAttempts {
			return err
		}
		select {
		case <-done:
			return errors.New("grid drained while reconnecting")
		case <-time.After(p.backoff(attempt)):
		}
	}
}

// dispatchState is the shared cell ledger for one Dispatch call.
type dispatchState struct {
	mu          sync.Mutex
	cond        *sync.Cond
	queue       []int // cells not currently running, FIFO (re-dispatches at front)
	outstanding int   // cells without a final record
	crashes     map[int]int
	done        chan struct{} // closed when outstanding hits 0
}

// newDispatchState builds the ledger for n cells, excluding the skip set
// (cells a resumed campaign already has final records for).
func newDispatchState(n int, skip map[int]bool) *dispatchState {
	st := &dispatchState{
		crashes: make(map[int]int),
		done:    make(chan struct{}),
	}
	st.cond = sync.NewCond(&st.mu)
	for i := 0; i < n; i++ {
		if !skip[i] {
			st.queue = append(st.queue, i)
			st.outstanding++
		}
	}
	if st.outstanding == 0 {
		close(st.done)
	}
	return st
}

// take pops the next cell. An empty queue with cells still in flight
// elsewhere blocks rather than returning: a sibling worker may die and
// requeue its cell, and an idle worker must be there to steal it. take
// only reports false once every cell has a final record (or the caller's
// worker is the last one standing and dies — then nobody waits).
func (s *dispatchState) take() (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.queue) == 0 && s.outstanding > 0 {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return 0, false
	}
	i := s.queue[0]
	s.queue = s.queue[1:]
	return i, true
}

// finish records that cell i's final record was emitted.
func (s *dispatchState) finish() {
	s.mu.Lock()
	s.outstanding--
	if s.outstanding == 0 {
		s.cond.Broadcast()
		close(s.done)
	}
	s.mu.Unlock()
}

// crashCount reports how many worker deaths cell i has survived.
func (s *dispatchState) crashCount(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashes[i]
}

// crashed records a worker death while cell i was in flight and decides
// its fate: requeue at the front (true) while the crash budget lasts, or
// give up (false). The budget is budget+1 re-dispatches: a process death
// says nothing deterministic about the cell (the usual cause is memory
// pressure), so even a no-retries campaign gets one more try on a
// surviving worker. The dying worker's driver may exit after this call,
// so wake an idle sibling to steal the requeued cell.
func (s *dispatchState) crashed(i, budget int) (requeue bool, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashes[i]++
	n = s.crashes[i]
	if n <= budget+1 {
		s.queue = append([]int{i}, s.queue...)
		s.cond.Broadcast()
		return true, n
	}
	return false, n
}

// remaining returns the unfinished cells in dispatch order (only
// non-empty when every worker died).
func (s *dispatchState) remaining() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.queue...)
}

// Dispatch implements campaign.Dispatcher: init every live worker with the
// (family, spec) it rebuilds the matrix from, then pull-dispatch cells
// until the grid drains. One Dispatch runs at a time per pool (experiments
// within an invocation are sequential; the lock makes it explicit).
func (p *Pool) Dispatch(tasks []campaign.Task, opt campaign.ExecOptions, emit func(campaign.RunRecord)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.buildSlotsLocked()

	live := p.initWorkers(tasks, opt)

	st := newDispatchState(len(tasks), opt.SkipDone)

	var wg sync.WaitGroup
	for _, w := range live {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			p.drive(w, tasks, opt, st, emit)
		}(w)
	}
	wg.Wait()

	// Every worker is gone but cells remain: degrade to in-process
	// execution — the coordinator still holds the real closures, and
	// RunOne keeps the records identical to what a worker would have
	// produced.
	if rem := st.remaining(); len(rem) > 0 {
		fmt.Fprintf(p.cfg.Stderr, "fleet: all %d workers gone with %d cells left; finishing in-process\n",
			len(live), len(rem))
		for _, i := range rem {
			rec := campaign.RunOne(tasks[i], i, opt)
			rec.Attempts += st.crashes[i]
			emit(rec)
		}
	}
	return nil
}

// initWorkers (re)initializes every slot for this matrix and returns the
// usable ones. A slot that fails init permanently (binary drift, unknown
// family, matrix-size disagreement) or exhausts its reconnect budget is
// marked dead and sits out the campaign.
func (p *Pool) initWorkers(tasks []campaign.Task, opt campaign.ExecOptions) []*worker {
	var live []*worker
	for _, w := range p.workers {
		if w.dead {
			continue
		}
		if err := p.connect(w, tasks, opt, nil); err != nil {
			p.killSlot(w, err)
		} else {
			live = append(live, w)
		}
	}
	return live
}

// drive runs one worker's request/response loop until the queue drains or
// the worker dies. A connection failure requeues the in-flight cell (or —
// past the crash budget — records it failed), then the link reconnects
// when the transport supports it; only when reconnection is impossible or
// exhausted does the driver exit and the slot die.
func (p *Pool) drive(w *worker, tasks []campaign.Task, opt campaign.ExecOptions,
	st *dispatchState, emit func(campaign.RunRecord)) {
	budget := max(opt.Retries, p.hooks.CrashBudget)
	for {
		i, ok := st.take()
		if !ok {
			return
		}
		rec, err := p.runCell(w, i, opt)
		if err == nil {
			// Crash count is execution metadata: re-dispatched cells
			// surface how many process deaths they survived without
			// perturbing the record's deterministic payload.
			rec.Attempts += st.crashCount(i)
			emit(rec)
			st.finish()
			continue
		}
		p.disconnect(w, fmt.Sprintf("cell %d: %v", i, err))
		requeue, n := st.crashed(i, budget)
		if !requeue {
			t := tasks[i]
			emit(campaign.RunRecord{
				Name: t.Name, Index: i,
				Seed:     campaign.DeriveSeed(opt.BaseSeed, t.SeedIndex),
				Params:   t.Params,
				Err:      fmt.Sprintf("fleet: cell killed %d worker link(s); crash budget exhausted", n),
				Attempts: n,
			})
			st.finish()
		}
		if !w.tr.Redial() {
			p.killSlot(w, errors.New("transport does not redial"))
			return
		}
		if err := p.connect(w, tasks, opt, st.done); err != nil {
			p.killSlot(w, err)
			return
		}
		fmt.Fprintf(p.cfg.Stderr, "fleet: worker %d (%s) reconnected\n", w.pid, w.tr)
	}
}

// runCell sends one run request and reads heartbeats until the record
// arrives. Every read is bounded: by the heartbeat deadline (hbReadFactor
// silent intervals means the worker process is wedged — SIGSTOP, livelock
// — even if its host is reachable), and by the cell's total budget when a
// watchdog is armed (Timeout+Grace+margin: a worker still heartbeating
// past the point its own watchdog must have fired is wedged in grace
// handling). Any error means the worker can no longer be trusted — the
// protocol is strictly serial, so a partial read has no recovery point.
func (p *Pool) runCell(w *worker, i int, opt campaign.ExecOptions) (campaign.RunRecord, error) {
	var rec campaign.RunRecord
	if err := w.c.send(msg{Type: "run", Index: i}); err != nil {
		return rec, fmt.Errorf("write: %w", err)
	}
	var total time.Time
	if t := opt.Watchdog.Timeout; t > 0 {
		grace := opt.Watchdog.Grace
		if grace <= 0 {
			grace = time.Second
		}
		total = time.Now().Add(t + grace + deadlineMargin)
	}
	for {
		d := time.Now().Add(hbReadFactor * p.hooks.Heartbeat)
		if !total.IsZero() && total.Before(d) {
			d = total
		}
		if err := w.conn.SetReadDeadline(d); err != nil {
			return rec, fmt.Errorf("arm liveness deadline: %w", err)
		}
		m, err := w.c.recv()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return rec, fmt.Errorf("liveness: no heartbeat within %v (worker wedged, not slow)",
					hbReadFactor*p.hooks.Heartbeat)
			}
			return rec, fmt.Errorf("read: %w", err)
		}
		switch m.Type {
		case "hb":
			if m.Index != i {
				return rec, fmt.Errorf("protocol: heartbeat for cell %d while running %d", m.Index, i)
			}
		case "record":
			w.conn.SetReadDeadline(time.Time{})
			if m.Index != i {
				return rec, fmt.Errorf("protocol: record for index %d, want %d", m.Index, i)
			}
			if m.Err != "" {
				return rec, fmt.Errorf("worker: %s", m.Err)
			}
			return m.Rec, nil
		default:
			return rec, fmt.Errorf("protocol: got %q for index %d, want record", m.Type, m.Index)
		}
	}
}

// disconnect tears down a slot's current link (killing and reaping the
// child for the process transport) without declaring the slot dead — the
// redial path may bring it back.
func (p *Pool) disconnect(w *worker, why string) {
	if w.conn == nil {
		return
	}
	fmt.Fprintf(p.cfg.Stderr, "fleet: worker %d (%s) link lost (%s)\n", w.pid, w.tr, why)
	w.conn.Close()
	w.conn, w.c = nil, nil
}

// killSlot marks a slot, whose link is already down, permanently dead for
// this pool.
func (p *Pool) killSlot(w *worker, why error) {
	w.dead = true
	fmt.Fprintf(p.cfg.Stderr, "fleet: worker slot %d (%s) dismissed: %v\n", w.slot, w.tr, why)
}
