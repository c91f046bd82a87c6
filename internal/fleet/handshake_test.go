package fleet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pi2/internal/campaign"
)

// fakeHost accepts TCP connections, answers each with hello and then
// drains it until the coordinator hangs up. It returns the address and a
// count of accepted connections.
func fakeHost(t *testing.T, hello func(net.Conn)) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer c.Close()
				hello(c)
				io.Copy(io.Discard, c)
			}()
		}
	}()
	return ln.Addr().String(), &accepts
}

// TestHandshakeRejectsDrift points a one-host pool at workers that fail
// the handshake. Each failure is permanent: the slot is dismissed after
// one connection, with no redials, stderr names the mismatch, and the
// grid still finishes in-process.
func TestHandshakeRejectsDrift(t *testing.T) {
	frameHello := func(m msg) func(net.Conn) {
		return func(c net.Conn) { newWire(c).send(m) }
	}
	cases := []struct {
		name  string
		hello func(net.Conn)
		want  string
	}{
		{"proto", frameHello(msg{Type: "hello", Proto: 2, FP: Fingerprint()}),
			"protocol drift: worker speaks v2, coordinator v3"},
		{"fingerprint", frameHello(msg{Type: "hello", Proto: ProtoVersion, FP: "0123456789abcdef"}),
			"binary drift: worker fingerprint 0123456789ab"},
		{"v2 NDJSON hello", func(c net.Conn) {
			io.WriteString(c, `{"t":"hello","proto":2,"fp":"`+Fingerprint()+`","pid":1}`+"\n")
		}, "protocol drift: worker hello is no v3 frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepts := fakeHost(t, tc.hello)
			var errlog bytes.Buffer
			p := NewPool(Config{Hosts: []Host{{Addr: addr, Workers: 1}}, Stderr: &errlog})
			p.hooks.ReconnectBase = time.Millisecond
			defer p.Close()
			tasks := []campaign.Task{{Name: "hs", Run: func(*campaign.TaskCtx) any { return 1 }}}
			var recs []campaign.RunRecord
			p.Dispatch(tasks, campaign.ExecOptions{Family: "hs"}, func(r campaign.RunRecord) {
				recs = append(recs, r)
			})
			if len(recs) != 1 || recs[0].Err != "" {
				t.Errorf("records = %+v, want one clean in-process record", recs)
			}
			if n := accepts.Load(); n != 1 {
				t.Errorf("host accepted %d connections, want 1 (a drifted worker is not redialed)", n)
			}
			log := errlog.String()
			if !strings.Contains(log, tc.want) || !strings.Contains(log, "dismissed") {
				t.Errorf("stderr lacks %q and a dismissal:\n%s", tc.want, log)
			}
		})
	}
}

// TestServeRejectsJSONInit feeds a worker a pre-v3 coordinator's NDJSON
// init line. Its first four bytes read as a 578 M frame length: Serve
// must fail at once, without allocating the claimed length.
func TestServeRejectsJSONInit(t *testing.T) {
	Fingerprint() // hash the test binary outside the measured window
	in := strings.NewReader(`{"t":"init","proto":2,"fp":"x","family":"sweep"}` + "\n")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() { done <- Serve(in, io.Discard) }()
	select {
	case err := <-done:
		if !errors.Is(err, errFrameSize) {
			t.Errorf("Serve = %v, want a frame-size error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve hung on a JSON init line")
	}
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("Serve allocated %d bytes rejecting a JSON init line", d)
	}
}
