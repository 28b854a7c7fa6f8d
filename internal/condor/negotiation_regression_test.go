package condor_test

import (
	"fmt"
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
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

// TestFreeIndexTracksScan runs a pool through claims, completions and random
// SetOffline flips and checks the free-slot index (each machine's bit and the
// count) against a full !Offline && !AtCapacity() scan after every event.
func TestFreeIndexTracksScan(t *testing.T) {
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: 6, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(3)),
		condor.Config{HostSlots: 2})
	machines := pool.Machines()

	var events, full int
	check := func() {
		scan := 0
		for _, m := range machines {
			free := !m.Offline && !m.AtCapacity()
			if free {
				scan++
			}
			if got := pool.InFreeIndex(m); got != free {
				t.Fatalf("event %d: %s indexed free=%v, scan says %v (offline=%v, %d/%d slots)",
					events, m.Name, got, free, m.Offline, len(m.Resident), m.HostSlots)
			}
		}
		if got := pool.FreeMachines(); got != scan {
			t.Fatalf("event %d: FreeMachines() = %d, scan counts %d", events, got, scan)
		}
		if scan == 0 {
			full++
		}
		events++
	}
	check()
	eng.AfterStep = check

	r := rng.New(5).Fork("flips")
	var flip func()
	flip = func() {
		if pool.Done() {
			return
		}
		pool.SetOffline(machines[r.Intn(len(machines))], r.Intn(3) == 0)
		eng.After(units.Tick(1+r.Intn(20))*units.Second, flip)
	}
	eng.After(units.Second, flip)
	pool.Submit(job.GenerateTableOneSet(120, rng.New(7).Fork("tableI")))
	eng.Run()

	if !pool.Done() {
		t.Fatal("pool not done after the engine drained")
	}
	if full == 0 {
		t.Fatal("the pool never ran out of free machines: claims never emptied the index")
	}
}

// TestMatchCacheOracleDisablesEveryShortcut pins that DisableMatchCache is
// the one oracle for every negotiator shortcut, including the two that do
// not consult the verdict cache: the qedit identity elision (re-applying the
// installed Requirements keeps the ad version) and the dirty-cycle
// short-circuit (a cycle that provably repeats a no-op is skipped). On the
// default path both fire; under the oracle neither may.
func TestMatchCacheOracleDisablesEveryShortcut(t *testing.T) {
	for _, oracle := range []bool{false, true} {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: 2, Seed: 1})
		pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{
			DisableMatchCache: oracle,
			StallLimit:        1 << 30,
		})
		pool.Submit([]*job.Job{unmatchableJob(1)})
		q := pool.Pending()[0]
		const req = "TARGET.PhiFreeMemory >= MY.RequestPhiMemory"
		pool.Qedit(q, req)
		v := q.Ad.Version()
		pool.Qedit(q, req)
		if kept := q.Ad.Version() == v; kept == oracle {
			want := map[bool]string{false: "kept", true: "bumped"}[oracle]
			t.Errorf("oracle=%v: ad version %d -> %d across an identical re-qedit, want it %s",
				oracle, v, q.Ad.Version(), want)
		}
		// The unmatchable job keeps every cycle a no-op: after the first
		// full scan the default path skips the rest.
		eng.RunUntil(60 * units.Second)
		skips := pool.Stats().CycleSkips
		if oracle && skips != 0 {
			t.Errorf("oracle run skipped %d cycles, want 0", skips)
		}
		if !oracle && skips == 0 {
			t.Error("default run skipped no cycle over an unchanging no-op queue")
		}
	}
}
