// Streaming run aggregation: the O(1)-per-record half of the million-job
// pipeline. An Aggregate consumes terminal JobRecords one at a time and
// keeps only integer tallies (global and per-tenant), so a run can drop
// each record the moment it is folded in. All accumulation is int64
// addition and max — commutative and associative — and every float appears
// only in the finalization step, which walks tenants in sorted-name order;
// consequently feeding the same multiset of records in any order yields
// bit-identical results, which is what lets the retained post-hoc path
// (Summarize) and the emit-and-drop path share one oracle.
package metrics

import (
	"sort"

	"phishare/internal/units"
)

// tenantTally is one tenant's integer accumulators. Turnaround and
// sequential work are summed over completed jobs only, so stretch and
// fairness measure delivered service, not abandoned attempts.
type tenantTally struct {
	jobs, completed, failed, crashes int
	doneTurn, doneSeq                int64
}

// Aggregate folds JobRecords into run-level tallies online.
// The zero value is ready to use.
type Aggregate struct {
	jobs, completed, failed, crashes int
	wait, turn                       int64 // all jobs (Summary means)
	doneTurn, doneSeq                int64 // completed jobs (stretch)
	lastEnd                          units.Tick
	firstSubmit                      units.Tick
	tenants                          map[string]*tenantTally
}

// Add folds one terminal record in. Order-independent: any permutation of
// the same records yields a bit-identical Aggregate.
func (a *Aggregate) Add(r JobRecord) {
	if a.jobs == 0 || r.SubmitTime < a.firstSubmit {
		a.firstSubmit = r.SubmitTime
	}
	a.jobs++
	a.crashes += r.Crashes
	a.wait += int64(r.WaitTime())
	turn := int64(r.EndTime - r.SubmitTime)
	a.turn += turn
	if r.EndTime > a.lastEnd {
		a.lastEnd = r.EndTime
	}
	if r.Completed {
		a.completed++
		a.doneTurn += turn
		a.doneSeq += int64(r.SeqWork)
	} else {
		a.failed++
	}
	if a.tenants == nil {
		a.tenants = make(map[string]*tenantTally)
	}
	t := a.tenants[r.User]
	if t == nil {
		t = &tenantTally{}
		a.tenants[r.User] = t
	}
	t.jobs++
	t.crashes += r.Crashes
	if r.Completed {
		t.completed++
		t.doneTurn += turn
		t.doneSeq += int64(r.SeqWork)
	} else {
		t.failed++
	}
}

// Summary finalizes the paper's per-run summary. Identical inputs produce
// output bit-identical to Summarize over the corresponding record slice —
// Summarize is implemented on top of Add.
func (a *Aggregate) Summary(utils []*CoreUtilization, makespan units.Tick) Summary {
	s := Summary{
		Makespan:  makespan,
		Jobs:      a.jobs,
		Completed: a.completed,
		Failed:    a.failed,
		Crashes:   a.crashes,
	}
	if a.jobs > 0 {
		s.MeanWait = units.Tick(a.wait / int64(a.jobs))
		s.MeanTurnaround = units.Tick(a.turn / int64(a.jobs))
	}
	if len(utils) > 0 && makespan > 0 {
		total := 0.0
		for _, u := range utils {
			total += u.Utilization(makespan)
		}
		s.AvgUtilization = total / float64(len(utils))
	}
	return s
}

// TenantStat is one tenant's delivered-service summary.
type TenantStat struct {
	User      string
	Jobs      int
	Completed int
	Failed    int
	Crashes   int
	// Work is the tenant's delivered sequential work (Σ SeqWork over its
	// completed jobs) — the allocation fairness is judged on.
	Work units.Tick
	// Turnaround is Σ(EndTime − SubmitTime) over its completed jobs.
	Turnaround units.Tick
}

// StreamStats is the full online summary of a streaming run: the Summary
// plus the scale-era metrics (per-tenant fairness, stretch, footprint).
type StreamStats struct {
	Summary Summary
	// Tenants is the number of distinct submitting users seen.
	Tenants int
	// Fairness is Jain's index over per-tenant delivered sequential work —
	// 1 when every tenant got an equal share of the cluster's service.
	Fairness float64
	// Stretch is the work-weighted mean stretch of completed jobs:
	// Σ turnaround / Σ sequential work. 1 would mean every job ran as if
	// alone on infinitely many devices; queueing and sharing push it up.
	// (The per-sum ratio, unlike a mean of per-job ratios, is independent
	// of record arrival order — the bit-identity contract demands that.)
	Stretch float64
	// FirstSubmit and LastEnd bound the observed record activity.
	FirstSubmit, LastEnd units.Tick
	// PeakPending and PeakInFlight are the pool's high-water marks —
	// the O(active) footprint the streaming engine is bounded by. Filled
	// by the runner from pool counters; zero when unavailable.
	PeakPending, PeakInFlight int
	// PeakHeapBytes is the largest live heap observed by the runner's
	// memory probe (0 when probing is off).
	PeakHeapBytes uint64
}

// PerTenant returns every tenant's stat, sorted by user name.
func (a *Aggregate) PerTenant() []TenantStat {
	out := make([]TenantStat, 0, len(a.tenants))
	for user, t := range a.tenants {
		out = append(out, TenantStat{
			User:       user,
			Jobs:       t.jobs,
			Completed:  t.completed,
			Failed:     t.failed,
			Crashes:    t.crashes,
			Work:       units.Tick(t.doneSeq),
			Turnaround: units.Tick(t.doneTurn),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// Stats finalizes the streaming summary. Like Summary, bit-identical for
// the same record multiset regardless of arrival order: the tenant walk is
// name-sorted and every tally is an integer.
func (a *Aggregate) Stats(utils []*CoreUtilization, makespan units.Tick) StreamStats {
	st := StreamStats{
		Summary:     a.Summary(utils, makespan),
		Tenants:     len(a.tenants),
		FirstSubmit: a.firstSubmit,
		LastEnd:     a.lastEnd,
	}
	work := make([]float64, 0, len(a.tenants))
	for _, t := range a.PerTenant() {
		work = append(work, float64(t.Work))
	}
	st.Fairness = JainIndex(work)
	if a.doneSeq > 0 {
		st.Stretch = float64(a.doneTurn) / float64(a.doneSeq)
	}
	return st
}
