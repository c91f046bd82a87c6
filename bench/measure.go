package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number; the unit travels with every value so the
// output is self-describing.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a single-workload run prints as the last
// line of its standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// usage is a point-in-time reading of what a rep is charged for: wall
// clock, CPU time of this process plus every reaped child (the fleet
// workers), and heap objects/bytes allocated by this process.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func rusage(who int) syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage only fails on a bad `who` or pointer; neither can happen here.
	_ = syscall.Getrusage(who, &ru)
	return ru
}

func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		ru := rusage(who)
		total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return total
}

// peakRSSMB is this process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	return float64(rusage(syscall.RUSAGE_SELF).Maxrss) / 1024
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// medianOf3 times fn three times and returns the median, which is what the
// probes report: one descheduling on a shared box cannot move it.
func medianOf3(fn func() float64) float64 {
	return median([]float64{fn(), fn(), fn()})
}
