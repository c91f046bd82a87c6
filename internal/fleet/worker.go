package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"pi2/internal/campaign"
)

// defaultHeartbeat is the heartbeat interval used when the coordinator's
// init doesn't choose one, and the coordinator's own default.
const defaultHeartbeat = time.Second

// Serve runs the worker side of the fleet protocol until the coordinator
// closes our stdin (clean shutdown) or the pipe breaks. pi2bench calls it
// from the -worker flag; test binaries call it from TestMain behind an env
// gate.
func Serve(r io.Reader, w io.Writer) error {
	return serveConn(struct {
		io.Reader
		io.Writer
	}{r, w})
}

// ServeTCP runs a worker host: it listens on addr and serves the fleet
// protocol to every coordinator connection concurrently — a -hosts line
// with workers=N dials N connections, so N cells run in parallel here.
// The actual listen address is announced on out ("fleet: listening on …"),
// which is how scripts recover the port from addr ":0". Runs until the
// listener breaks; per-connection errors are logged to errw and do not
// stop the host (the coordinator re-dials through its backoff path).
func ServeTCP(addr string, out, errw io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fleet: listen %s: %w", addr, err)
	}
	fmt.Fprintf(out, "fleet: listening on %s\n", ln.Addr())
	for {
		nc, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("fleet: accept: %w", err)
		}
		tuneTCP(nc)
		go func(c net.Conn) {
			defer c.Close()
			fmt.Fprintf(errw, "fleet: coordinator %s connected\n", c.RemoteAddr())
			if err := serveConn(c); err != nil {
				fmt.Fprintf(errw, "fleet: coordinator %s: %v\n", c.RemoteAddr(), err)
				return
			}
			fmt.Fprintf(errw, "fleet: coordinator %s disconnected\n", c.RemoteAddr())
		}(nc)
	}
}

// serveConn speaks one connection's worth of protocol: hello first (the
// worker always speaks first so both transports handshake identically),
// then init/run cycles until EOF. The message loop is strictly serial from
// the coordinator's point of view — one cell at a time, the record sent
// before the next message is read — but while a cell runs on its own
// goroutine the loop emits heartbeats, which is what lets the
// coordinator's read deadlines tell a wedged worker from a slow cell.
func serveConn(conn io.ReadWriter) error {
	c := newWire(conn)
	if err := c.send(msg{Type: "hello", Proto: ProtoVersion, FP: Fingerprint(), Pid: os.Getpid()}); err != nil {
		return fmt.Errorf("fleet worker: write hello: %w", err)
	}
	var tasks []campaign.Task
	var opt campaign.ExecOptions
	hb := defaultHeartbeat
	for {
		m, err := c.recv()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("fleet worker: read: %w", err)
		}
		switch m.Type {
		case "init":
			tasks, opt = nil, m.cellOptions()
			if m.Heartbeat > 0 {
				hb = m.Heartbeat
			}
			reply := msg{Type: "ready"}
			if d := drift("coordinator", "worker", m.Proto, m.FP); d != "" {
				reply.Err = d
			} else if src, ok := campaign.LookupSource(m.Family); !ok {
				reply.Err = fmt.Sprintf("unknown task source %q", m.Family)
			} else if built, err := src(m.Spec); err != nil {
				reply.Err = fmt.Sprintf("task source %q: %v", m.Family, err)
			} else {
				tasks = built
				reply.Tasks = len(built)
			}
			if err := c.send(reply); err != nil {
				return fmt.Errorf("fleet worker: write ready: %w", err)
			}
		case "run":
			if err := runWithHeartbeats(c, tasks, opt, m.Index, hb); err != nil {
				return err
			}
		default:
			// Ignore unknown message types: a newer coordinator may probe
			// capabilities; silence is the compatible answer.
		}
	}
}

// runWithHeartbeats executes one cell on its own goroutine while the
// connection goroutine ticks hb messages, then sends the record. A write
// error on either means the coordinator is gone; the cell goroutine is
// left to finish into a buffered channel (its result is discarded — the
// coordinator has already requeued the cell elsewhere).
func runWithHeartbeats(c *wire, tasks []campaign.Task,
	opt campaign.ExecOptions, index int, hb time.Duration) error {
	done := make(chan msg, 1)
	go func() { done <- runRecord(tasks, opt, index) }()
	ticker := time.NewTicker(hb)
	defer ticker.Stop()
	for {
		select {
		case reply := <-done:
			err := c.send(reply)
			if errors.Is(err, errUnencodable) {
				// An unregistered result type can't cross the wire; strip
				// it and surface the failure in the record so the table
				// prints FAILED instead of the campaign wedging.
				reply.Rec.Result = nil
				reply.Rec.Err = "fleet: result " + err.Error()
				err = c.send(reply)
			}
			if err != nil {
				return fmt.Errorf("fleet worker: write record: %w", err)
			}
			return nil
		case <-ticker.C:
			if err := c.send(msg{Type: "hb", Index: index}); err != nil {
				return fmt.Errorf("fleet worker: write heartbeat: %w", err)
			}
		}
	}
}

// runRecord runs one dispatched cell and packages its record.
func runRecord(tasks []campaign.Task, opt campaign.ExecOptions, index int) msg {
	if index < 0 || index >= len(tasks) {
		return msg{Type: "record", Index: index,
			Err: fmt.Sprintf("index %d outside matrix of %d", index, len(tasks))}
	}
	return msg{Type: "record", Index: index, Rec: campaign.RunOne(tasks[index], index, opt)}
}
