package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"autarky"
)

// rep is one repetition of a workload: one set-up and one timed phase over
// the workload's fixed, seed-derived operation sequence.
type rep struct {
	setup   time.Duration
	elapsed time.Duration // timed phase only, pauses excluded
	// Host speed relative to the reference host (calibrate.go): just after
	// set-up, and averaged over the timed phase.
	setupSpeed, speed float64

	ops       int // completed operations (the ops_per_s numerator)
	attempted int // operations tried, refusals included
	failed    int // refused or over-limit operations

	allocBytes    uint64  // Go heap bytes allocated in the timed phase
	retainedBytes int64   // live heap after a forced GC, end minus start
	gcCPU         float64 // seconds of CPU the collector used
	peakRSS       float64 // MB, the resident-set high-water mark of the rep

	// sim holds the deterministic figures: simulated-time metrics and
	// per-layer counts and shares. Equal seeds must give equal maps.
	sim map[string]float64
	// host holds per-layer host timings, measured only on traced reps.
	host map[string]float64
}

func newRep() *rep { return &rep{sim: map[string]float64{}, host: map[string]float64{}} }

// runtimeSample reads the runtime counters the timed phase is bracketed by.
type runtimeSample struct {
	allocs, live uint64
	gcCPU        float64
}

// readRuntime forces a GC, so the live heap and the collector's CPU
// estimate (refreshed at each GC) are current, then samples them.
func readRuntime() runtimeSample {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeSample{allocs: ms.TotalAlloc, live: ms.HeapAlloc, gcCPU: gcCPUSeconds()}
}

// gcCPUSeconds returns the collector's CPU estimate, as of the last
// completed GC.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// phase is a workload's timed part: run performs the operations, and
// finish checks their outputs and derives the rep's figures once timing
// has stopped, so neither its work nor its allocations are measured. A
// long phase calls pause between steps; the host speed is measured there,
// and the time that takes is not counted.
type phase struct {
	run    func(pause func()) error
	finish func(*rep) error
}

// measure runs one rep: prepare builds and warms the workload (timed as
// set-up) and returns the phase that is timed. The host speed is measured
// after set-up, at every pause and at the end; each stretch of the phase is
// converted to reference-host time at the mean speed of its two ends. A
// traced rep keeps only the spans of its timed phase.
func measure(prepare func() (phase, error), tr *tracer) (*rep, error) {
	r := newRep()
	t0 := time.Now()
	ph, err := prepare()
	r.setup = time.Since(t0)
	if err != nil {
		return nil, err
	}
	before := readRuntime()
	speed := hostSpeed()
	r.setupSpeed = speed
	var reference float64 // the phase's duration at reference speed, in s
	tr.reset()
	start := time.Now()
	stretch := func() {
		d := time.Since(start)
		next := hostSpeed()
		r.elapsed += d
		reference += d.Seconds() * (speed + next) / 2
		speed = next
		start = time.Now()
	}
	err = ph.run(stretch)
	stretch()
	r.speed = reference / r.elapsed.Seconds()
	// The collector's CPU is read before the forced GC of the end sample,
	// which the workload did not cause; it covers the collections the phase
	// completed.
	gcEnd := gcCPUSeconds()
	after := readRuntime()
	// The phase holds the workload's machines; keep them reachable until
	// the live heap has been read, so retained state is counted.
	runtime.KeepAlive(ph)
	if err != nil {
		return nil, err
	}
	r.allocBytes = after.allocs - before.allocs
	r.retainedBytes = int64(after.live) - int64(before.live)
	r.gcCPU = gcEnd - before.gcCPU
	if err := ph.finish(r); err != nil {
		return nil, err
	}
	return r, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current RSS, so the next peakRSSMB covers only what follows. Where the
// kernel does not support it, peakRSSMB keeps covering the whole process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reports the process's resident-set high-water mark.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
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

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is not modified.
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

// nearestRank returns the 1-based rank of the q-quantile of n sorted
// values: ceil(q*n), at least 1 — the rule metrics.Histogram.Percentile
// uses.
func nearestRank(q float64, n int) int {
	return max(int(math.Ceil(q*float64(n))), 1)
}

// rankValue returns the nearest-rank q-quantile of sorted.
func rankValue(sorted []uint64, q float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(q, len(sorted))-1]
}

// p999Resolved reports whether at least ten of n samples lie beyond the
// 99.9th percentile's rank, the rule for reporting that percentile.
func p999Resolved(n int) bool { return n-nearestRank(0.999, n) >= 10 }

// latency records the simulated per-operation latency figures.
func (r *rep) latency(samples []uint64) {
	s := append([]uint64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	r.percentiles(len(s), func(q float64) uint64 { return rankValue(s, q) })
}

// percentiles records p50/p99/p999 in kcycles from a quantile function
// over n samples; p999 stays 0 when fewer than ten samples lie beyond it.
func (r *rep) percentiles(n int, quantile func(float64) uint64) {
	r.sim["sim_samples"] = float64(n)
	r.sim["sim_p50_kcycles"] = float64(quantile(0.50)) / 1e3
	r.sim["sim_p99_kcycles"] = float64(quantile(0.99)) / 1e3
	r.sim["sim_p999_kcycles"] = 0
	if p999Resolved(n) {
		r.sim["sim_p999_kcycles"] = float64(quantile(0.999)) / 1e3
	}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// snapshotDelta sums the metrics of every machine between two points.
func snapshotDelta(ms []*autarky.Machine, before []autarky.MetricsSnapshot) (autarky.MetricsSnapshot, error) {
	var d autarky.MetricsSnapshot
	for i, m := range ms {
		now := m.Metrics()
		if err := now.Check(); err != nil {
			return d, err
		}
		d.Cycles += now.Cycles - before[i].Cycles
		for c := range d.Attribution {
			d.Attribution[c] += now.Attribution[c] - before[i].Attribution[c]
		}
		for c := range d.Counters {
			d.Counters[c] += now.Counters[c] - before[i].Counters[c]
		}
	}
	return d, nil
}

// snapshots captures the current metrics of every machine.
func snapshots(ms []*autarky.Machine) []autarky.MetricsSnapshot {
	out := make([]autarky.MetricsSnapshot, len(ms))
	for i, m := range ms {
		out[i] = m.Metrics()
	}
	return out
}
