package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or
// getrusage's maxrss where /proc is not mounted.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
				f := bytes.Fields(rest)
				if len(f) > 0 {
					if kb, err := strconv.ParseFloat(string(f[0]), 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goStats is the Go runtime's and the process's counters at one moment.
type goStats struct {
	allocBytes uint64
	mallocs    uint64
	gcCount    uint32
	gcPause    time.Duration
	cpu        time.Duration
}

// readGoStats stops the world briefly; call it at phase boundaries only.
func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{ms.TotalAlloc, ms.Mallocs, ms.NumGC, time.Duration(ms.PauseTotalNs), cpuTime()}
}

func goStatsInto(r *run, a, b goStats) {
	r.set("go.alloc_mb", float64(b.allocBytes-a.allocBytes)/(1<<20))
	r.set("go.mallocs", float64(b.mallocs-a.mallocs))
	r.set("go.gc_count", float64(b.gcCount-a.gcCount))
	r.set("go.gc_pause_ms", float64(b.gcPause-a.gcPause)/1e6)
	r.set("go.cpu_s", (b.cpu - a.cpu).Seconds())
}
