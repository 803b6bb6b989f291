package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// epoch anchors the monotonic timestamps the benchmark stamps frames
// with.
var epoch = time.Now()

// now is nanoseconds since epoch on the monotonic clock.
func now() int64 { return int64(time.Since(epoch)) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heap is a snapshot of the cumulative allocation counters.
type heap struct{ mallocs, bytes uint64 }

func heapNow() heap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heap{ms.Mallocs, ms.TotalAlloc}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile of v (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
