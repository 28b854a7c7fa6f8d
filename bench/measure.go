package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// wallNow is the benchmark's only wall-clock read. Its values time the
// harness's calls into the simulator and never reach simulated state.
func wallNow() time.Time {
	return time.Now() //philint:ignore wallclock harness timing, never feeds simulated state
}

func secondsSince(t0 time.Time) float64 { return wallNow().Sub(t0).Seconds() }

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid buffer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// phase is one closed-loop measurement: runs back to back, each started
// when the previous one returns.
type phase struct {
	walls   []float64 // milliseconds per run
	jobs    int       // jobs completed
	cpu     float64   // process CPU seconds
	mallocs uint64
	bytes   uint64
}

// measure runs the cell until it has made minRuns runs and spent seconds.
func (c *cell) measure(in inputs, seed int64, seconds float64, minRuns int, k *checker) phase {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	var p phase
	start := wallNow()
	for i := 0; i < minRuns || secondsSince(start) < seconds; i++ {
		cfg := c.config(in, seed, i)
		t0 := wallNow()
		res, err := runOnce(cfg)
		p.walls = append(p.walls, 1000*secondsSince(t0))
		k.check(i, res, err)
		p.jobs += res.Summary.Completed
	}
	p.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	p.mallocs = after.Mallocs - before.Mallocs
	p.bytes = after.TotalAlloc - before.TotalAlloc
	return p
}

// setup generates the cell's inputs and makes its warm-up runs, c.setups
// times, and returns the last inputs, the median set-up seconds and the
// median peak heap of the warm-up runs. Each warm-up run samples the live
// heap 16 times, forcing as many collections; the measured runs never do.
// The peak counts what the run adds to the live heap it starts from, so the
// benchmark's own inputs do not.
func (c *cell) setup(seed int64, k *checker) (inputs, float64, float64) {
	var in inputs
	times := make([]float64, c.setups)
	var peaks []float64
	for s := range times {
		t0 := wallNow()
		in = c.generate(seed)
		for j := 0; j < c.warmups; j++ {
			i := s*c.warmups + j
			cfg := c.config(in, seed, i)
			cfg.MemProbeEvery = max(1, c.jobs/16)
			base := liveHeap()
			res, err := runOnce(cfg)
			k.check(i, res, err)
			peaks = append(peaks, float64(res.Stream.PeakHeapBytes)-float64(base))
		}
		times[s] = secondsSince(t0)
	}
	return in, quantile(times, 0.5), quantile(peaks, 0.5)
}

// liveHeap is the live heap after a forced collection, measured the way
// RunConfig.MemProbeEvery measures it.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// endToEnd measures the cell untraced and returns its end-to-end metrics.
func endToEnd(c *cell, seed int64, seconds float64, k *checker) map[string]float64 {
	in, setupS, peak := c.setup(seed, k)
	p := c.measure(in, seed, seconds, c.minRuns, k)
	if c.oracle {
		cfg := c.config(in, seed, 0)
		cfg.Condor.DisableMatchCache = true
		cfg.Core.ReferenceSolver = true
		res, err := runOnce(cfg)
		k.check(0, res, err)
	}

	attemptedJobs := float64(len(p.walls) * c.jobs)
	wallS := 0.0
	for _, w := range p.walls {
		wallS += w / 1000
	}
	return map[string]float64{
		"jobs_per_s":       float64(p.jobs) / wallS,
		"run_p50_ms":       quantile(p.walls, 0.5),
		"run_p99_ms":       quantile(p.walls, 0.99),
		"cpu_ms_per_kjob":  1000 * p.cpu / (attemptedJobs / 1000),
		"allocs_per_job":   float64(p.mallocs) / attemptedJobs,
		"alloc_kb_per_job": float64(p.bytes) / 1024 / attemptedJobs,
		"peak_heap_mb":     peak / (1 << 20),
		"setup_s":          setupS,
	}
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
