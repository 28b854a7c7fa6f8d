package condor_test

import (
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// cacheLookups is every match-cache consultation the pool has made: hits,
// cold misses and stale invalidations.
func cacheLookups(o *obs.Observer) int64 {
	return o.Reg.CounterValue("condor_match_cache_hits_total") +
		o.Reg.CounterValue("condor_match_cache_misses_total") +
		o.Reg.CounterValue("condor_match_cache_invalidations_total")
}

// TestAutoclusterRejectionIsPerCluster pins the scope of the per-cycle
// rejection rule: once a job of one autocluster finds no candidate machine,
// the rest of *that* cluster is skipped for the cycle, but the scan goes on —
// a later job of a different cluster still matches in the same cycle — and
// the stamp does not outlive the cycle.
func TestAutoclusterRejectionIsPerCluster(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 2, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{})
	o := obs.New()
	pool.SetObserver(o)
	// Two 9 GB jobs (one autocluster, larger than any 8 GB device) queued
	// ahead of a 500 MB job (another autocluster) that fits anywhere.
	pool.Submit([]*job.Job{
		mkJob(1, 9000, 60, 1),
		mkJob(2, 9000, 60, 1),
		mkJob(3, 500, 60, 1),
	})
	pool.NegotiateOnce()

	jobs := pool.Jobs()
	for i, want := range []condor.JobState{condor.Idle, condor.Idle, condor.Dispatched} {
		if jobs[i].State != want {
			t.Fatalf("job %d is %v after the cycle, want %v", jobs[i].Job.ID, jobs[i].State, want)
		}
	}
	// The first large job walks both machines; the second is skipped without
	// a lookup; the small job walks both machines and claims one.
	if got := cacheLookups(o); got != 4 {
		t.Fatalf("cycle made %d match-cache lookups, want 4 (2 for the rejected cluster's "+
			"first job, none for its second, 2 for the small job)", got)
	}

	// Next cycle: the large cluster is evaluated afresh (once), not carried
	// over as rejected.
	pool.NegotiateOnce()
	if got := cacheLookups(o); got != 6 {
		t.Fatalf("after a second cycle the pool made %d lookups, want 6: the rejection "+
			"stamp must expire with its cycle", got)
	}
}

// decliner is MC with a Select that leaves odd-numbered jobs idle even
// though machines matched them.
type decliner struct{ *scheduler.Exclusive }

func (decliner) Select(_ *condor.Pool, q *condor.QueuedJob, _ []*condor.Machine) int {
	if q.Job.ID%2 == 1 {
		return -1
	}
	return 0
}

// TestDeclinedSelectDoesNotRejectAutocluster pins the rule's trigger: only an
// empty candidate list rejects an autocluster for the cycle. A Select that
// declines non-empty candidates says nothing about the cluster's next job,
// which must still be offered its candidates — on the serial scan and on the
// sharded commit alike.
func TestDeclinedSelectDoesNotRejectAutocluster(t *testing.T) {
	for _, shards := range []int{0, 1} {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: 2, Seed: 1})
		pool := condor.NewPool(eng, clu, decliner{scheduler.NewExclusive()},
			condor.Config{NegotiationShards: shards})
		// Both jobs sign into one autocluster; job 1 is declined first.
		pool.Submit([]*job.Job{mkJob(1, 500, 60, 1), mkJob(2, 500, 60, 1)})
		pool.NegotiateOnce()
		jobs := pool.Jobs()
		if jobs[0].State != condor.Idle || jobs[1].State != condor.Dispatched {
			t.Fatalf("shards=%d: job states %v, %v after the cycle, want idle, dispatched: "+
				"a declined Select rejected its autocluster", shards, jobs[0].State, jobs[1].State)
		}
	}
}

// TestSaturatedCycleCostIndependentOfDepth is the cost contract of the
// rejection rule: on a pool where no machine can take any pending job, one
// negotiation cycle consults the match cache at most machines × autoclusters
// times, however deep the queue. Without the rule every pending job walked
// every machine.
//
// The MC leg saturates through Requirements: one exclusive claim per device
// leaves host slots free but every machine ad rejecting every job, so each
// lookup is real work and the bound has teeth (the full walk would cost
// depth × machines). The MCC leg saturates the host slots themselves; the
// slot guard then rejects before any lookup, so its cache cost is zero at any
// depth and the machine walk the rule also removes is pinned by
// BenchmarkNegotiate's saturated case instead.
func TestSaturatedCycleCostIndependentOfDepth(t *testing.T) {
	const nodes = 8
	for _, tc := range []struct {
		name       string
		policy     func() condor.Policy
		perMachine int // claims that saturate one machine
	}{
		{"MC", func() condor.Policy { return scheduler.NewExclusive() }, 1},
		{"MCC", func() condor.Policy { return scheduler.NewRandomPack(rng.New(3)) }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			costs := map[int]int64{}
			for _, depth := range []int{1_000, 4_000} {
				eng := sim.New()
				clu := cluster.New(eng, cluster.Config{Nodes: nodes, Seed: 1})
				pool := condor.NewPool(eng, clu, tc.policy(), condor.Config{})
				o := obs.New()
				pool.SetObserver(o)

				fill := make([]*job.Job, nodes*tc.perMachine)
				for i := range fill {
					fill[i] = mkJob(i, 500, 60, 1)
				}
				pool.Submit(fill)
				pool.NegotiateOnce()
				if pool.InFlight() != len(fill) {
					t.Fatalf("depth %d: %d of %d saturating jobs claimed", depth, pool.InFlight(), len(fill))
				}

				// The deep queue spans five autoclusters (distinct requests).
				deep := make([]*job.Job, depth)
				for i := range deep {
					deep[i] = mkJob(len(fill)+i, units.MB(600+100*(i%5)), 60, 1)
				}
				pool.Submit(deep)
				pool.NegotiateOnce() // first sight of the deep queue's clusters
				before := cacheLookups(o)
				pool.NegotiateOnce()
				cost := cacheLookups(o) - before
				if len(pool.Pending()) != depth {
					t.Fatalf("depth %d: %d jobs still pending, want all (the pool is saturated)",
						depth, len(pool.Pending()))
				}

				bound := int64(nodes * pool.AutoclusterCount())
				if cost > bound {
					t.Errorf("depth %d: one saturated cycle made %d match-cache lookups, "+
						"want <= machines × autoclusters = %d", depth, cost, bound)
				}
				costs[depth] = cost
			}
			if costs[1_000] != costs[4_000] {
				t.Errorf("saturated cycle cost grows with queue depth: %d lookups at 1,000 jobs, %d at 4,000",
					costs[1_000], costs[4_000])
			}
		})
	}
}
