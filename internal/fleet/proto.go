// Package fleet shards a campaign across worker processes — local children
// or remote hosts. The coordinator (Pool) speaks gob messages in CRC-checked
// frames (frame.go) over a Transport (stdio pipes to a spawned `pi2bench
// -worker`, or TCP to a `pi2bench -serve` host) and pull-dispatches cells
// one at a time — a worker asks for work implicitly by finishing its
// previous cell, so slow cells never straggle a whole worker's queue
// (work-stealing degenerates to "steal everything not yet started").
// Records stream back to the engine's emit funnel as they arrive; nothing
// grid-sized accumulates here.
//
// Determinism: a worker rebuilds the identical task matrix from the
// (family, spec) pair via campaign.RegisterSource and runs each dispatched
// cell through campaign.RunOne — the same DeriveSeed/PerturbSeed/watchdog
// machinery as the in-process pool. Which process runs a cell therefore
// cannot affect its record, so `-workers N` (or any `-hosts` fleet) output
// is byte-identical to `-jobs M`.
//
// Fault model, built fault-first: every connection starts with a version +
// build-fingerprint handshake (drifted binaries are rejected explicitly,
// not discovered via wrong numbers); a worker running a cell heartbeats,
// and the coordinator bounds every read by the heartbeat deadline — so a
// hung-but-alive worker (SIGSTOP, livelock) is distinguished from a slow
// cell and killed through the same crash-budget path as a dead one. A
// dropped connection re-dials with capped exponential backoff + jitter
// when the transport supports it (TCP); its in-flight cell re-dispatches
// to a sibling at the same seed. If every worker is gone the remaining
// cells run in-process: the coordinator still holds the real closures.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"pi2/internal/campaign"
)

// ProtoVersion is the fleet wire-protocol generation. A coordinator and
// worker disagreeing on it are rejected at handshake, before any cell
// runs. v1 was the first stdio protocol (init/hello, no handshake, no
// heartbeats); v2 added hello-first handshake with build fingerprints and
// heartbeats; v3 replaced v2's NDJSON envelopes with one gob stream per
// connection in the journal's CRC-32C frames (frame.go).
// v4: collectors encode as flat bytes, not nested gob.
const ProtoVersion = 4

// msg is one protocol message. Type discriminates; each type uses a few
// fields and leaves the rest at their zero values, which gob omits.
type msg struct {
	Type string

	// hello (worker → coordinator, once per connection, worker speaks
	// first) and init (coordinator → worker): Proto and FP carry each
	// side's protocol version and build fingerprint; either side rejects
	// a mismatch explicitly instead of trusting matrix-size luck.
	Proto int
	FP    string
	Pid   int

	// init (coordinator → worker): identifies the matrix and carries the
	// execution knobs that must match the in-process pool for records to
	// be bit-identical. Heartbeat is the coordinator-chosen interval:
	// while a cell runs, the worker emits one hb message per interval and
	// the coordinator treats hbReadFactor missed intervals as a dead
	// worker.
	Family       string
	Spec         []byte
	BaseSeed     int64
	Shards       int
	Retries      int
	RetryBackoff time.Duration
	Watchdog     campaign.Watchdog
	Heartbeat    time.Duration

	// ready (worker → coordinator): init acknowledgement. Tasks echoes
	// the rebuilt matrix size — with fingerprints equal a mismatch should
	// be impossible, but it stays as a belt-and-braces spec-drift check;
	// Err reports a worker-side init failure.
	Tasks int
	Err   string

	// run (coordinator → worker), hb and record (worker → coordinator).
	// Rec travels as gob, not JSON, because Result/Params hold typed
	// values that must round-trip exactly (see internal/campaign/wire.go).
	Index int
	Rec   campaign.RunRecord
}

// initMsg builds the init message for a matrix: its (family, spec)
// identity and the cell half of opt, every ExecOptions field RunOne reads.
// The rest of ExecOptions is host-local (pool width, sinks, dispatcher).
func initMsg(opt campaign.ExecOptions) msg {
	return msg{
		Type: "init", Proto: ProtoVersion, FP: Fingerprint(),
		Family: opt.Family, Spec: opt.Spec, BaseSeed: opt.BaseSeed,
		Shards: opt.Shards, Retries: opt.Retries, RetryBackoff: opt.RetryBackoff,
		Watchdog: opt.Watchdog,
	}
}

// cellOptions is the worker's side of initMsg: the ExecOptions its cells
// run under. Progress, Collector and Dispatch stay nil: a worker is a leaf.
func (m *msg) cellOptions() campaign.ExecOptions {
	return campaign.ExecOptions{
		BaseSeed: m.BaseSeed, Shards: m.Shards, Retries: m.Retries,
		RetryBackoff: m.RetryBackoff, Watchdog: m.Watchdog,
	}
}

// hbReadFactor is how many heartbeat intervals of silence the coordinator
// tolerates before declaring a worker dead. >1 absorbs scheduler jitter
// between the worker's ticker and the coordinator's read deadline.
const hbReadFactor = 4

// drift names a mismatch between this process's protocol version and
// build fingerprint and a peer's, or returns "" when both match.
func drift(peer, self string, proto int, fp string) string {
	if proto != ProtoVersion {
		return fmt.Sprintf("protocol drift: %s speaks v%d, %s v%d — rebuild and redeploy one binary",
			peer, proto, self, ProtoVersion)
	}
	if fp != Fingerprint() {
		return fmt.Sprintf("binary drift: %s fingerprint %.12s… != %s %.12s… — deploy the same build everywhere",
			peer, fp, self, Fingerprint())
	}
	return ""
}

// Fingerprint returns this process's build fingerprint: the SHA-256 of
// the executable file itself. Two binaries built from drifted sources
// cannot share it, and a binary copied to another host keeps it — exactly
// the equality the multi-host fleet needs. Computed once; errors degrade
// to a sentinel that only matches itself on the same failure mode.
func Fingerprint() string { return fingerprint() }

var fingerprint = sync.OnceValue(func() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
})
