package condor_test

import (
	"fmt"
	"reflect"
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/job"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// unmatchableJob builds a job no machine can ever match (more coprocessor
// memory than any device has), so negotiation cycles against it are pure
// matchmaking with no queue mutation.
func unmatchableJob(id int) *job.Job {
	j := &job.Job{
		ID: id, Name: "ghost", Workload: "test",
		Mem: 100_000, Threads: 60, ActualPeakMem: 90_000,
	}
	j.Phases = []job.Phase{{Kind: job.HostPhase, Duration: units.Second}}
	return j
}

// TestSupersededTriggersLeaveHeap is the regression for the dead-closure
// leak: every submit supersedes the outstanding periodic negotiation trigger
// (its NotifyDelay beats the far-future periodic deadline), and the old
// generation-check design left each superseded trigger's closure queued
// until its original deadline — one dead heap entry per submit, unbounded
// under sustained churn. With true timer removal the event heap stays at a
// small constant regardless of how many triggers have been superseded.
func TestSupersededTriggersLeaveHeap(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{
		// A huge periodic cycle keeps the standing trigger far in the
		// future, so every submit's NotifyDelay trigger supersedes it.
		NegotiationCycle: 10_000 * units.Second,
		NotifyDelay:      2 * units.Second,
		StallLimit:       1 << 30,
	})
	const churn = 200
	maxPending := 0
	var submit func(i int)
	submit = func(i int) {
		pool.Submit([]*job.Job{unmatchableJob(i)})
		if n := eng.Pending(); n > maxPending {
			maxPending = n
		}
		if i+1 < churn {
			eng.After(10*units.Second, func() { submit(i + 1) })
		}
	}
	eng.At(0, func() { submit(0) })
	eng.RunUntil(units.Tick(churn+10) * 10 * units.Second)

	// Steady state holds one chained submit event, one negotiation trigger,
	// and the odd in-flight follow-up — never one entry per superseded
	// trigger. Before the fix this reached ~churn.
	const bound = 8
	if maxPending > bound {
		t.Fatalf("event heap grew to %d entries under %d superseding submits, want <= %d "+
			"(superseded negotiation triggers left dead closures queued)",
			maxPending, churn, bound)
	}
}

// TestNegotiateOnceLeavesSkipStateUntouched is the regression for the probe
// leak: NegotiateOnce restored the trigger bookkeeping but not the
// dirty-cycle tracker, so a probe cycle between engine events made the next
// engine-driven cycle take the no-op skip even though the pool had been
// dirtied — a probed pool and an unprobed pool diverged on CycleSkips.
func TestNegotiateOnceLeavesSkipStateUntouched(t *testing.T) {
	run := func(probe bool) condor.Stats {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: 2, Seed: 1})
		pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{
			StallLimit: 1 << 30,
		})
		pool.Submit([]*job.Job{unmatchableJob(1)})
		// A few cycles: the first scans, the rest take the no-op skip.
		eng.RunUntil(35 * units.Second)
		// Dirty the pool without changing matchability: a machine drops off
		// and comes straight back. The next engine cycle must do a full
		// scan, probe or no probe.
		m := pool.Machines()[0]
		pool.SetOffline(m, true)
		pool.SetOffline(m, false)
		if probe {
			pool.NegotiateOnce()
		}
		eng.RunUntil(75 * units.Second)
		return pool.Stats()
	}
	plain, probed := run(false), run(true)
	if probed.Negotiations != plain.Negotiations+1 {
		t.Fatalf("probed pool ran %d negotiations, unprobed %d: probe should add exactly one",
			probed.Negotiations, plain.Negotiations)
	}
	if probed.CycleSkips != plain.CycleSkips {
		t.Fatalf("probed pool skipped %d cycles, unprobed %d: the probe perturbed the "+
			"dirty-cycle tracker", probed.CycleSkips, plain.CycleSkips)
	}
}

// TestInsertPendingMatchesLinearScan pins the binary-search pending insert
// against a reference linear-scan model: priority descending, FIFO within a
// level, whatever order priorities arrive in.
func TestInsertPendingMatchesLinearScan(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{})

	type entry struct{ id, pri int }
	var want []entry
	insertRef := func(e entry) {
		// The pre-binary-search insert: walk back past every strictly lower
		// priority, landing after the last entry with priority >= e.pri.
		i := len(want)
		for i > 0 && want[i-1].pri < e.pri {
			i--
		}
		want = append(want, entry{})
		copy(want[i+1:], want[i:])
		want[i] = e
	}

	r := rng.New(11).Fork("insert")
	for id := 0; id < 300; id++ {
		pri := r.Intn(8)
		pool.SubmitWithPriority([]*job.Job{unmatchableJob(id)}, pri)
		insertRef(entry{id: id, pri: pri})
	}

	got := pool.Pending()
	if len(got) != len(want) {
		t.Fatalf("pending has %d jobs, want %d", len(got), len(want))
	}
	for i, q := range got {
		if q.Job.ID != want[i].id || q.Priority != want[i].pri {
			t.Fatalf("pending[%d] = job %d pri %d, want job %d pri %d",
				i, q.Job.ID, q.Priority, want[i].id, want[i].pri)
		}
	}
}

// TestOfflineCounterTracksScan drives SetOffline through flips, repeats and
// redundant writes and checks the maintained counter against a full scan at
// every step — the O(1) replacement for finishCycle's per-cycle machine walk.
func TestOfflineCounterTracksScan(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 4, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{})
	machines := pool.Machines()

	check := func(step string) {
		t.Helper()
		scan := 0
		for _, m := range machines {
			if m.Offline {
				scan++
			}
		}
		if got := pool.OfflineMachines(); got != scan {
			t.Fatalf("%s: OfflineMachines() = %d, scan counts %d", step, got, scan)
		}
	}

	check("initial")
	r := rng.New(5).Fork("offline")
	for i := 0; i < 200; i++ {
		m := machines[r.Intn(len(machines))]
		// Redundant sets (same state) must be no-ops on the counter.
		pool.SetOffline(m, r.Intn(3) != 0)
		check(fmt.Sprintf("step %d", i))
	}
	for _, m := range machines {
		pool.SetOffline(m, false)
	}
	check("all restored")
	if pool.OfflineMachines() != 0 {
		t.Fatalf("counter %d after restoring every machine", pool.OfflineMachines())
	}
}

// TestShardedNegotiationBitIdentical is the acceptance test named by
// Config.NegotiationShards: across policies × seeds × shard counts, a full
// run on the sharded negotiator must be bit-for-bit identical to the serial
// scan — every job record, every activity counter. K beyond the machine
// count exercises the clamp. The saturated deep-queue leg keeps every host
// slot claimed behind thousands of pending jobs, the regime where both scans
// reject whole autoclusters per cycle.
func TestShardedNegotiationBitIdentical(t *testing.T) {
	policies := map[string]func() condor.Policy{
		"MC":   func() condor.Policy { return scheduler.NewExclusive() },
		"MCC":  func() condor.Policy { return scheduler.NewRandomPack(rng.New(3)) },
		"MCCK": func() condor.Policy { return core.New(core.Config{}) },
	}
	run := func(mk func() condor.Policy, seed int64, jobs, shards int) (condor.Stats, []interface{}) {
		eng := sim.New()
		eng.MaxSteps = 10_000_000
		clu := cluster.New(eng, cluster.Config{Nodes: 4, UseCosmic: true, Seed: 1})
		pool := condor.NewPool(eng, clu, mk(), condor.Config{
			MaxRetries:        2,
			NegotiationShards: shards,
		})
		pool.Submit(job.GenerateTableOneSet(jobs, rng.New(seed).Fork("tableI")))
		eng.Run()
		if !pool.Done() {
			t.Fatal("pool not done after engine drained")
		}
		recs := make([]interface{}, 0, len(pool.Records()))
		for _, r := range pool.Records() {
			recs = append(recs, r)
		}
		return pool.Stats(), recs
	}
	check := func(name string, seed int64, jobs int, shards []int) {
		t.Helper()
		wantStats, wantRecs := run(policies[name], seed, jobs, 0)
		for _, k := range shards {
			gotStats, gotRecs := run(policies[name], seed, jobs, k)
			if gotStats != wantStats {
				t.Errorf("%s seed %d jobs=%d shards=%d: stats diverge:\ngot  %+v\nwant %+v",
					name, seed, jobs, k, gotStats, wantStats)
			}
			if !reflect.DeepEqual(gotRecs, wantRecs) {
				for i := range wantRecs {
					if i >= len(gotRecs) || !reflect.DeepEqual(gotRecs[i], wantRecs[i]) {
						t.Fatalf("%s seed %d jobs=%d shards=%d: record %d diverges:\ngot  %+v\nwant %+v",
							name, seed, jobs, k, i, gotRecs[i], wantRecs[i])
					}
				}
				t.Fatalf("%s seed %d jobs=%d shards=%d: record count %d != %d",
					name, seed, jobs, k, len(gotRecs), len(wantRecs))
			}
		}
	}
	for name := range policies {
		for seed := int64(1); seed <= 5; seed++ {
			check(name, seed, 40, []int{1, 3, 8})
		}
	}
	// Saturated deep queues against 16 host slots (MC, whose exclusive
	// claims saturate the 4 devices, is the slower simulation per job).
	check("MCC", 7, 3_000, []int{1, 3})
	check("MC", 7, 1_000, []int{1, 3})
}

// TestShardRangesPlanning pins the partition plan: contiguous, covering,
// near-even, clamped to the machine count, and collapsed to one full range
// whenever sharding is off or a cache-disabled replay forces the serial scan.
func TestShardRangesPlanning(t *testing.T) {
	plan := func(nodes int, cfg condor.Config) [][2]int {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: nodes, Seed: 1})
		return condor.NewPool(eng, clu, scheduler.NewExclusive(), cfg).ShardRanges()
	}
	// Serial configurations: one full range.
	for _, cfg := range []condor.Config{
		{},
		{NegotiationShards: 4, DisableAutoclusters: true},
		{NegotiationShards: 4, DisableMatchCache: true},
	} {
		r := plan(6, cfg)
		if len(r) != 1 || r[0] != [2]int{0, 6} {
			t.Fatalf("config %+v: ranges %v, want one full range", cfg, r)
		}
	}
	// Sharded: contiguous cover, sizes differing by at most one, K clamped.
	for _, tc := range []struct{ nodes, k, wantShards int }{
		{6, 1, 1}, {6, 2, 2}, {6, 4, 4}, {6, 100, 6}, {3, 8, 3},
	} {
		r := plan(tc.nodes, condor.Config{NegotiationShards: tc.k})
		if len(r) != tc.wantShards {
			t.Fatalf("nodes=%d K=%d: %d shards, want %d", tc.nodes, tc.k, len(r), tc.wantShards)
		}
		lo, minSz, maxSz := 0, tc.nodes, 0
		for _, pr := range r {
			if pr[0] != lo {
				t.Fatalf("nodes=%d K=%d: ranges %v not contiguous", tc.nodes, tc.k, r)
			}
			sz := pr[1] - pr[0]
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			lo = pr[1]
		}
		if lo != tc.nodes {
			t.Fatalf("nodes=%d K=%d: ranges %v do not cover the inventory", tc.nodes, tc.k, r)
		}
		if maxSz-minSz > 1 {
			t.Fatalf("nodes=%d K=%d: shard sizes spread %d..%d, want near-even", tc.nodes, tc.k, minSz, maxSz)
		}
	}
}
