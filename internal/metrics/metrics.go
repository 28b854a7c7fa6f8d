// Package metrics implements the measurements reported in the paper's
// evaluation: core-utilization integrals (the §III motivation numbers),
// makespan, and per-job-set summaries.
package metrics

import (
	"fmt"
	"sort"

	"phishare/internal/units"
)

// CoreUtilization integrates a device's busy-core count over time. It
// implements phi.UtilSink: the device reports every change in its busy-core
// count and the tracker accumulates the piecewise-constant integral,
// reproducing the paper's per-core activity monitoring ("we monitored the
// activity of each processing core").
type CoreUtilization struct {
	cores         int
	lastTime      units.Tick
	lastBusy      int
	busyCoreTicks int64
}

// NewCoreUtilization tracks a device with the given core count.
func NewCoreUtilization(cores int) *CoreUtilization {
	if cores <= 0 {
		panic(fmt.Sprintf("metrics: non-positive core count %d", cores))
	}
	return &CoreUtilization{cores: cores}
}

// Record notes that from time now onward, busy cores are busy. Times must
// be non-decreasing.
func (u *CoreUtilization) Record(now units.Tick, busy int) {
	if now < u.lastTime {
		panic(fmt.Sprintf("metrics: time went backwards: %v < %v", now, u.lastTime))
	}
	if busy < 0 || busy > u.cores {
		panic(fmt.Sprintf("metrics: busy=%d outside [0, %d]", busy, u.cores))
	}
	u.busyCoreTicks += int64(u.lastBusy) * int64(now-u.lastTime)
	u.lastTime = now
	u.lastBusy = busy
}

// BusyCoreSeconds returns the integral of busy cores up to end, in
// core-seconds.
func (u *CoreUtilization) BusyCoreSeconds(end units.Tick) float64 {
	total := u.busyCoreTicks
	if end > u.lastTime {
		total += int64(u.lastBusy) * int64(end-u.lastTime)
	}
	return float64(total) / float64(units.Second)
}

// Utilization returns the average fraction of cores busy over [0, end].
func (u *CoreUtilization) Utilization(end units.Tick) float64 {
	if end <= 0 {
		return 0
	}
	return u.BusyCoreSeconds(end) / (float64(u.cores) * end.Seconds())
}

// JobRecord captures one job's cluster-level lifecycle for summaries.
type JobRecord struct {
	ID         int
	Workload   string
	User       string // submitting tenant ("" = anonymous single user)
	SubmitTime units.Tick
	StartTime  units.Tick // first dispatch
	EndTime    units.Tick // completion (or final failure)
	Completed  bool
	Crashes    int // kill events before (or instead of) completion
	Machine    string
	// SeqWork is the job's inherent sequential running time (sum of its
	// phase durations) — the denominator of stretch and the weight of
	// per-tenant delivered work.
	SeqWork units.Tick
}

// WaitTime is how long the job sat before first starting.
func (r JobRecord) WaitTime() units.Tick { return r.StartTime - r.SubmitTime }

// Summary aggregates one simulation run.
type Summary struct {
	Makespan       units.Tick
	Jobs           int
	Completed      int
	Failed         int
	Crashes        int
	AvgUtilization float64 // mean core utilization across devices over the makespan
	MeanWait       units.Tick
	MeanTurnaround units.Tick
	MaxConcurrency int // peak jobs resident on any single device (reported by caller)
}

// Summarize builds a Summary from job records and device utilizations.
// makespan should be the completion time of the last job. It is a thin
// wrapper over the streaming Aggregate, so the retained and emit-and-drop
// paths are bit-identical by construction, not by parallel maintenance.
//
//philint:ignore deadapi reference oracle: metrics' TestSummarize checks the retained-records summary through it
func Summarize(records []JobRecord, utils []*CoreUtilization, makespan units.Tick) Summary {
	var a Aggregate
	for _, r := range records {
		a.Add(r)
	}
	return a.Summary(utils, makespan)
}

// Reduction returns the fractional improvement of measured over baseline,
// e.g. Reduction(3568, 2183) = 0.39 — the paper's "makespan reduction
// compared to MC" columns.
func Reduction(baseline, measured units.Tick) float64 {
	if baseline <= 0 {
		return 0
	}
	return 1 - float64(measured)/float64(baseline)
}

// JainIndex computes Jain's fairness index over per-entity allocations:
// (Σx)² / (n·Σx²), in (0, 1] with 1 meaning perfectly equal. The standard
// fairness summary for the multi-user scheduling comparisons discussed in
// the paper's related work. Returns 0 for empty or all-zero input.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Percentile returns the p-th percentile (0-100) of the given durations
// using nearest-rank. It returns 0 for an empty slice.
func Percentile(ds []units.Tick, p float64) units.Tick {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]units.Tick, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
