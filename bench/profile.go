package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuBuckets are the layers CPU time is attributed to, by the package of
// the function on top of each sampled stack. Together they cover every
// sample, so a run's shares sum to 1.
var cpuBuckets = []string{"sim", "link_aqm_core", "tcp", "stats_packet", "campaign_fleet", "runtime", "other"}

var bucketOfPackage = map[string]string{
	"sim":  "sim",
	"link": "link_aqm_core", "aqm": "link_aqm_core", "core": "link_aqm_core", "fq": "link_aqm_core", "faults": "link_aqm_core",
	"tcp": "tcp", "traffic": "tcp",
	"stats": "stats_packet", "packet": "stats_packet",
	"campaign": "campaign_fleet", "fleet": "campaign_fleet", "experiments": "campaign_fleet",
	"golden": "campaign_fleet", "ff": "campaign_fleet",
}

func bucketOf(function string) string {
	if rest, ok := strings.CutPrefix(function, "pi2/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if b, ok := bucketOfPackage[pkg]; ok {
			return b
		}
		return "other"
	}
	if strings.HasPrefix(function, "runtime.") || strings.HasPrefix(function, "runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuShares runs fn under the CPU profiler (profile written to path) and
// returns each bucket's share of the samples taken. Profiling is
// process-wide, so nothing else may run beside fn.
func cpuShares(path string, fn func()) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	// The toolchain that built this binary reads the profile back: every
	// function's flat time, as text.
	top, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", "-unit=ms", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	table := false
	for sc := bufio.NewScanner(bytes.NewReader(top)); sc.Scan(); {
		f := strings.Fields(sc.Text())
		if !table {
			table = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		shares[bucketOf(f[5])] += flat.Seconds()
		total += flat.Seconds()
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for _, b := range cpuBuckets {
		shares[b] /= total
	}
	return shares, nil
}
