package pi2bench

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pi2/internal/campaign"
	"pi2/internal/fleet"
	"pi2/internal/golden"
	"pi2/internal/stats"
)

// TestMain lets this test binary double as a fleet worker: the benchmark
// below re-executes it with PI2_FLEET_WORKER=1 and speaks the protocol
// over its stdin/stdout.
func TestMain(m *testing.M) {
	if os.Getenv("PI2_FLEET_WORKER") == "1" {
		if err := fleet.Serve(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	if os.Getenv("PI2_FLEET_SERVE") == "1" {
		if err := fleet.ServeTCP("127.0.0.1:0", os.Stdout, os.Stderr); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type fleetBenchRes struct{ V int64 }

func init() {
	campaign.RegisterWireType(fleetBenchRes{})
	campaign.RegisterSource("fleetbench", func(raw []byte) ([]campaign.Task, error) {
		var sp struct {
			N int `json:"n"`
		}
		if err := json.Unmarshal(raw, &sp); err != nil {
			return nil, err
		}
		tasks := make([]campaign.Task, sp.N)
		for i := range tasks {
			tasks[i] = campaign.Task{
				Name: "fleetbench", SeedIndex: i,
				Run: func(tc *campaign.TaskCtx) any { return fleetBenchRes{V: tc.Seed} },
			}
		}
		return tasks, nil
	})
}

func fleetBenchGrid(b *testing.B, n int) ([]campaign.Task, campaign.ExecOptions) {
	b.Helper()
	raw, err := json.Marshal(struct {
		N int `json:"n"`
	}{N: n})
	if err != nil {
		b.Fatal(err)
	}
	src, _ := campaign.LookupSource("fleetbench")
	tasks, err := src(raw)
	if err != nil {
		b.Fatal(err)
	}
	return tasks, campaign.ExecOptions{Jobs: 1, BaseSeed: 1, Family: "fleetbench", Spec: raw}
}

// BenchmarkFleetDispatchOverhead prices the fleet protocol per cell: one
// campaign of b.N empty cells through a single worker process (run and
// record messages, one CRC frame each on the connection's gob stream,
// round-tripped over pipes) against the same campaign
// through the in-process pool. The difference is the floor a cell's
// simulation work must dominate for -workers to pay off; BENCH_hotpath.json
// budgets both so a protocol regression fails the bench gate.
func BenchmarkFleetDispatchOverhead(b *testing.B) {
	b.Run("inproc", func(b *testing.B) {
		tasks, opt := fleetBenchGrid(b, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		campaign.Execute(tasks, opt)
	})
	b.Run("fleet", func(b *testing.B) {
		exe, err := os.Executable()
		if err != nil {
			b.Fatal(err)
		}
		pool := fleet.NewPool(fleet.Config{
			Workers: 1,
			Command: []string{exe},
			Env:     []string{"PI2_FLEET_WORKER=1"},
		})
		defer pool.Close()
		// Spawn and init the worker outside the timer: process startup is
		// a per-campaign cost, not a per-cell one.
		warm, warmOpt := fleetBenchGrid(b, 1)
		warmOpt.Dispatch = pool
		campaign.Execute(warm, warmOpt)

		tasks, opt := fleetBenchGrid(b, b.N)
		opt.Dispatch = pool
		b.ReportAllocs()
		b.ResetTimer()
		campaign.Execute(tasks, opt)
	})
}

// BenchmarkFleetTCPDispatchOverhead prices the same empty cell through the
// TCP transport on loopback: a worker host process (re-exec'd with
// PI2_FLEET_SERVE=1), one connection, per-cell read deadlines armed. The
// delta over the stdio arm above is what -hosts costs on top of -workers
// before any real network is involved.
func BenchmarkFleetTCPDispatchOverhead(b *testing.B) {
	exe, err := os.Executable()
	if err != nil {
		b.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "PI2_FLEET_SERVE=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		b.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		b.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		b.Fatalf("reading host announcement: %v", err)
	}
	addr := strings.TrimSpace(strings.TrimPrefix(line, "fleet: listening on "))

	pool := fleet.NewPool(fleet.Config{Hosts: []fleet.Host{{Addr: addr, Workers: 1}}})
	defer pool.Close()
	// Dial and handshake outside the timer: connection setup is a
	// per-campaign cost, not a per-cell one.
	warm, warmOpt := fleetBenchGrid(b, 1)
	warmOpt.Dispatch = pool
	campaign.Execute(warm, warmOpt)

	tasks, opt := fleetBenchGrid(b, b.N)
	opt.Dispatch = pool
	b.ReportAllocs()
	b.ResetTimer()
	campaign.Execute(tasks, opt)
}

// BenchmarkSampleWire round-trips a 16384-observation exact sample (a
// sweep cell's pooled sojourn sample holds ~18 k) through one persistent
// gob encoder/decoder pair, the stream shape of a fleet connection. Type
// definitions cross once, before the timer, so each op is the collector's
// own encoding: the 128 KB of observations out and back, not a nested gob
// stream per value. BENCH_hotpath.json budgets its allocs and bytes.
func BenchmarkSampleWire(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var s stats.Sample
	for i := 0; i < 16384; i++ {
		s.Add(rng.ExpFloat64() * 0.01)
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	roundTrip := func() {
		if err := enc.Encode(&s); err != nil {
			b.Fatal(err)
		}
		var got stats.Sample
		if err := dec.Decode(&got); err != nil {
			b.Fatal(err)
		}
		if got.N() != s.N() {
			b.Fatalf("decoded %d observations, sent %d", got.N(), s.N())
		}
	}
	roundTrip()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// goldenSweepRecords runs the golden-scale sweep grid (what pi2bench -check
// runs, one rep per cell) in process and returns its records, each with its
// journal encoding.
func goldenSweepRecords(tb testing.TB) ([]campaign.RunRecord, [][]byte) {
	tb.Helper()
	src, _ := campaign.LookupSource("sweep")
	tasks, err := src([]byte(fmt.Sprintf(`{"quick":true,"timediv":%d}`, golden.TimeDiv)))
	if err != nil {
		tb.Fatal(err)
	}
	recs := campaign.Execute(tasks, campaign.ExecOptions{Jobs: 2, BaseSeed: golden.Seed})
	blobs := make([][]byte, len(recs))
	for i := range recs {
		if recs[i].Err != "" {
			tb.Fatalf("sweep cell %d failed: %s", recs[i].Index, recs[i].Err)
		}
		if blobs[i], err = campaign.EncodeRecord(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return recs, blobs
}

// maxSweepRecordBytes bounds one golden-scale sweep record on the fleet wire
// and in the journal. Its sojourn histogram costs about one byte per bin
// (NewDelayHistogram: ≈1200 bins); an exact sample cost 8 bytes per packet,
// 9-81 kB per record at this scale.
const maxSweepRecordBytes = 4096

// TestSweepRecordWireSize holds every golden-scale sweep record's journal
// encoding to maxSweepRecordBytes and checks it decodes to the same metrics.
func TestSweepRecordWireSize(t *testing.T) {
	recs, blobs := goldenSweepRecords(t)
	for i, blob := range blobs {
		if len(blob) > maxSweepRecordBytes {
			t.Errorf("sweep record %d encodes in %d bytes, want at most %d", recs[i].Index, len(blob), maxSweepRecordBytes)
		}
		got, err := campaign.DecodeRecord(blob)
		if err != nil {
			t.Fatalf("sweep record %d: %v", recs[i].Index, err)
		}
		if fmt.Sprint(got.Metrics) != fmt.Sprint(recs[i].Metrics) {
			t.Errorf("sweep record %d decoded metrics %v, encoded %v", recs[i].Index, got.Metrics, recs[i].Metrics)
		}
	}
}

// BenchmarkSweepRecordWire encodes and decodes the largest golden-scale
// sweep record as the journal stores it: one self-contained gob stream per
// record (campaign.EncodeRecord), type definitions included. It reports the
// record's size as record_bytes; BENCH_hotpath.json budgets its allocs and
// bytes per op.
func BenchmarkSweepRecordWire(b *testing.B) {
	recs, blobs := goldenSweepRecords(b)
	big := 0
	for i := range blobs {
		if len(blobs[i]) > len(blobs[big]) {
			big = i
		}
	}
	rec := recs[big]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, err := campaign.EncodeRecord(&rec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := campaign.DecodeRecord(blob); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blobs[big])), "record_bytes")
}
