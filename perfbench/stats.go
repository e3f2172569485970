package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// clock reads monotonic nanoseconds since a run's base time, so every
// timestamp of one run (due times, spans, arrivals) shares one origin.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// at returns the wall time of offset ns, for sleeping until a due time.
func (c clock) at(ns int64) time.Time { return c.base.Add(time.Duration(ns)) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by nearest rank,
// sorting xs in place; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is the process's peak resident set size (getrusage
// ru_maxrss, kilobytes on Linux) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// rtSample is a snapshot of the process-wide counters behind the
// runtime.* per-layer metrics: the phase's metric is the difference of
// two snapshots.
type rtSample struct {
	mallocs, allocBytes uint64
	gcCPU, cpu          float64
}

func readRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var gc float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return rtSample{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCPU: gc, cpu: cpuSeconds()}
}

// runtimeMetrics turns the counters of a measured phase of ticks into
// the runtime.* per-layer metrics.
func runtimeMetrics(m metricSet, from, to rtSample, ticks int) {
	n := float64(ticks)
	m.set("runtime.allocs_per_tick", float64(to.mallocs-from.mallocs)/n, "count")
	m.set("runtime.alloc_bytes_per_tick", float64(to.allocBytes-from.allocBytes)/n, "B")
	gcFrac := 0.0
	if cpu := to.cpu - from.cpu; cpu > 0 {
		gcFrac = (to.gcCPU - from.gcCPU) / cpu
	}
	m.set("runtime.gc_cpu_frac", gcFrac, "ratio")
}

// timeUs runs fn repeatedly — at least minReps times, then until budget
// is spent or maxReps is reached — and returns the median call time in
// µs. Probes use it so one GC pause does not set the figure.
func timeUs(minReps, maxReps int, budget time.Duration, fn func() error) (float64, error) {
	var ds []float64
	start := time.Now()
	for len(ds) < maxReps && (len(ds) < minReps || time.Since(start) < budget) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(ds), nil
}
