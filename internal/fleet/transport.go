package fleet

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"time"
)

// Conn is one byte-stream link to a worker. Both implementations — a child
// process's stdio pipes and a TCP socket — support read deadlines, which is
// what lets the coordinator bound every read by the heartbeat contract and
// declare a silent worker dead instead of blocking forever.
type Conn interface {
	io.ReadWriteCloser
	// SetReadDeadline bounds subsequent Reads; the zero time clears it.
	SetReadDeadline(t time.Time) error
}

// Transport produces connections to one worker endpoint. Dial is called
// once at campaign start and again after a connection-level failure when
// Redial reports true — a worker host that dropped mid-campaign
// re-handshakes and rejoins the steal pool through the same path.
type Transport interface {
	// Dial establishes a fresh link. The worker side speaks first: a
	// hello envelope must be readable from the returned Conn.
	Dial() (Conn, error)
	// Redial reports whether a broken link is worth re-establishing. The
	// process transport answers false — its endpoint died with the
	// connection — while TCP answers true: the worker host outlives any
	// one connection.
	Redial() bool
	// String names the endpoint for diagnostics.
	String() string
}

// procTransport spawns a fresh worker process per Dial and speaks over its
// stdio pipes. The process dies with the connection (Close kills and
// reaps), so Redial is false: respawning on a pipe error would mask crash
// loops that the crash-budget path is supposed to bound.
type procTransport struct {
	argv   []string
	env    []string
	stderr io.Writer
}

func (t *procTransport) Redial() bool   { return false }
func (t *procTransport) String() string { return fmt.Sprintf("proc %s", t.argv[0]) }

func (t *procTransport) Dial() (Conn, error) {
	cmd := exec.Command(t.argv[0], t.argv[1:]...)
	cmd.Env = append(os.Environ(), t.env...)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		in.Close()
		return nil, err
	}
	errPipe, err := cmd.StderrPipe()
	if err != nil {
		in.Close()
		out.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err // Start closes the pipes when it fails
	}
	// Tee the worker's stderr line by line, each line prefixed with the
	// worker pid, so multi-worker crash diagnostics are attributable
	// instead of interleaving raw streams.
	go teeStderr(errPipe, t.stderr, cmd.Process.Pid)
	return &procConn{cmd: cmd, in: in, out: out}, nil
}

// teeStderr copies r to w one line at a time, prefixing each with
// "[w<pid>] ". Each line is a single Write, so concurrent workers
// interleave at line granularity. Oversized lines (past the 1 MiB scanner
// cap) degrade to an unprefixed raw copy rather than being dropped.
func teeStderr(r io.Reader, w io.Writer, pid int) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for sc.Scan() {
		fmt.Fprintf(w, "[w%d] %s\n", pid, sc.Text())
	}
	if sc.Err() != nil {
		io.Copy(w, r)
	}
}

// procConn adapts a child process's stdio pipes to Conn. Close is the
// process's terminator: stdin close requests a clean exit, Kill covers a
// wedged one, Wait reaps.
type procConn struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out io.ReadCloser
}

func (c *procConn) Read(p []byte) (int, error)  { return c.out.Read(p) }
func (c *procConn) Write(p []byte) (int, error) { return c.in.Write(p) }

func (c *procConn) SetReadDeadline(t time.Time) error {
	// exec.Cmd.StdoutPipe is an *os.File pipe; on Linux the runtime poller
	// enforces deadlines on it.
	if f, ok := c.out.(*os.File); ok {
		return f.SetReadDeadline(t)
	}
	return fmt.Errorf("fleet: stdout pipe %T does not support deadlines", c.out)
}

func (c *procConn) Close() error {
	c.in.Close()
	if c.cmd.Process != nil {
		c.cmd.Process.Kill()
	}
	c.cmd.Wait()
	return nil
}

// tcpTransport dials a worker host started with `pi2bench -serve`.
type tcpTransport struct {
	addr string
}

func (t *tcpTransport) Redial() bool   { return true }
func (t *tcpTransport) String() string { return "tcp " + t.addr }

func (t *tcpTransport) Dial() (Conn, error) {
	nc, err := net.DialTimeout("tcp", t.addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	tuneTCP(nc)
	return nc.(Conn), nil
}

// tuneTCP sets both ends of a fleet link. Cells are latency-insensitive
// but a message per cell is small: disable Nagle so run/record round
// trips don't stack delayed ACKs, and arm keep-alive so a vanished peer
// (host power-off, no FIN) eventually errors instead of wedging the link.
func tuneTCP(nc net.Conn) {
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
}
