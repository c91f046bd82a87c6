package pi2bench

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pi2/internal/campaign"
	"pi2/internal/fleet"
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
