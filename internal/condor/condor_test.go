package condor_test

import (
	"slices"
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// mkJob builds a simple offload job: setup, k offloads with host gaps.
func mkJob(id int, mem units.MB, threads units.Threads, offloads int) *job.Job {
	j := &job.Job{
		ID: id, Name: "j", Workload: "test",
		Mem: mem, Threads: threads, ActualPeakMem: units.MB(float64(mem) * 0.9),
	}
	j.Phases = append(j.Phases, job.Phase{Kind: job.HostPhase, Duration: 1 * units.Second})
	for i := 0; i < offloads; i++ {
		j.Phases = append(j.Phases,
			job.Phase{Kind: job.OffloadPhase, Duration: 2 * units.Second, Threads: threads},
			job.Phase{Kind: job.HostPhase, Duration: 1 * units.Second})
	}
	return j
}

type testRig struct {
	eng  *sim.Engine
	clu  *cluster.Cluster
	pool *condor.Pool
}

func rig(policy condor.Policy, nodes int, useCosmic bool) *testRig {
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: nodes, UseCosmic: useCosmic, Seed: 1})
	pool := condor.NewPool(eng, clu, policy, condor.Config{})
	return &testRig{eng: eng, clu: clu, pool: pool}
}

func (r *testRig) run(t *testing.T, jobs []*job.Job) {
	t.Helper()
	r.pool.Submit(jobs)
	r.eng.Run()
	if !r.pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
}

// jobEvents records a pool's condor-layer job lifecycle events — the obs
// events carrying a job field, except qedit — in emission order.
type jobEvents []obs.Event

func (l *jobEvents) Consume(e obs.Event) {
	if _, ok := e.Int("job"); ok && e.Layer == obs.LayerCondor && e.Kind != "qedit" {
		e.Fields = slices.Clone(e.Fields) // the trace reuses its field buffer
		*l = append(*l, e)
	}
}

// observeJobs attaches an observer that retains nothing to the pool and
// returns the job event record it feeds.
func observeJobs(p *condor.Pool) *jobEvents {
	o := obs.New()
	o.Trace.SetStreaming(true)
	l := &jobEvents{}
	o.Trace.AddConsumer(l)
	p.SetObserver(o)
	return l
}

// of returns the events of one job, in order.
func (l jobEvents) of(jobID int) []obs.Event {
	var out []obs.Event
	for _, e := range l {
		if id, _ := e.Int("job"); id == int64(jobID) {
			out = append(out, e)
		}
	}
	return out
}

// count returns how many events of the kind were recorded.
func (l jobEvents) count(kind string) int {
	n := 0
	for _, e := range l {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func completedCount(p *condor.Pool) int {
	n := 0
	for _, q := range p.Jobs() {
		if q.State == condor.Completed {
			n++
		}
	}
	return n
}

func TestExclusiveRunsAllJobs(t *testing.T) {
	r := rig(scheduler.NewExclusive(), 2, false)
	var jobs []*job.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(i, 1000, 240, 2))
	}
	r.run(t, jobs)
	if got := completedCount(r.pool); got != 6 {
		t.Errorf("completed %d/6", got)
	}
}

func TestExclusiveNeverSharesDevices(t *testing.T) {
	r := rig(scheduler.NewExclusive(), 2, false)
	var jobs []*job.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, mkJob(i, 500, 60, 2))
	}
	r.run(t, jobs)
	if r.pool.MaxConcurrency() != 1 {
		t.Errorf("MC max concurrency %d, want 1 (exclusive devices)", r.pool.MaxConcurrency())
	}
}

func TestRandomPackShares(t *testing.T) {
	r := rig(scheduler.NewRandomPack(rng.New(3)), 1, true)
	var jobs []*job.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(i, 1000, 60, 3))
	}
	r.run(t, jobs)
	if got := completedCount(r.pool); got != 6 {
		t.Errorf("completed %d/6", got)
	}
	if r.pool.MaxConcurrency() < 2 {
		t.Errorf("MCC max concurrency %d, want sharing", r.pool.MaxConcurrency())
	}
}

func TestRandomPackBlocksAtNodeOnMemory(t *testing.T) {
	// 6 x 3 GB jobs on one 8 GB device: the cluster level dispatches up to
	// the 4-slot limit, but COSMIC admits at most 2 at a time — the rest
	// wait at the node, holding their slots.
	r := rig(scheduler.NewRandomPack(rng.New(4)), 1, true)
	var jobs []*job.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(i, 3000, 60, 2))
	}
	r.run(t, jobs)
	if got := completedCount(r.pool); got != 6 {
		t.Errorf("completed %d/6", got)
	}
	unit := r.clu.Units[0]
	if got := unit.Cosmic.Stats().MaxAdmitted; got > 2 {
		t.Errorf("device admitted %d concurrent 3GB jobs, want <= 2", got)
	}
	if r.clu.Units[0].Cosmic.Stats().AdmissionsBlocked == 0 {
		t.Error("memory-oblivious packing never blocked at the node")
	}
	if unit.Device.Stats().OOMKills != 0 {
		t.Error("declared memory oversubscribed on device")
	}
}

func TestMCCKCompletesAndShares(t *testing.T) {
	r := rig(core.New(core.Config{}), 2, true)
	var jobs []*job.Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, mkJob(i, 800, 60, 3))
	}
	r.run(t, jobs)
	if got := completedCount(r.pool); got != 12 {
		t.Errorf("completed %d/12", got)
	}
	if r.pool.MaxConcurrency() < 2 {
		t.Errorf("MCCK max concurrency %d, want sharing", r.pool.MaxConcurrency())
	}
	if r.pool.Stats().Qedits == 0 {
		t.Error("MCCK performed no qedits")
	}
}

func TestMCCKPinsRespectDesignatedSlot(t *testing.T) {
	// All jobs must run on machines they were pinned to; with the memory
	// guard this means declared memory is never oversubscribed.
	r := rig(core.New(core.Config{}), 3, true)
	var jobs []*job.Job
	for i := 0; i < 9; i++ {
		jobs = append(jobs, mkJob(i, 3000, 120, 2))
	}
	r.run(t, jobs)
	for _, q := range r.pool.Jobs() {
		if q.Machine == nil {
			t.Errorf("job %d never ran", q.Job.ID)
		}
	}
	if r.pool.MaxConcurrency() > 2 {
		t.Errorf("max concurrency %d with 3GB jobs on 8GB devices", r.pool.MaxConcurrency())
	}
}

func TestSharingBeatsExclusiveMakespan(t *testing.T) {
	// The paper's core claim at miniature scale: 16 half-width jobs on 2
	// devices finish sooner under MCC and MCCK than under MC.
	mk := func() []*job.Job {
		var jobs []*job.Job
		for i := 0; i < 16; i++ {
			jobs = append(jobs, mkJob(i, 800, 120, 3))
		}
		return jobs
	}
	run := func(p condor.Policy, cosmic bool) units.Tick {
		r := rig(p, 2, cosmic)
		r.run(t, mk())
		if got := completedCount(r.pool); got != 16 {
			t.Fatalf("%s completed %d/16", p.Name(), got)
		}
		return r.pool.Makespan()
	}
	mc := run(scheduler.NewExclusive(), false)
	mcc := run(scheduler.NewRandomPack(rng.New(5)), true)
	mcck := run(core.New(core.Config{}), true)
	if mcc >= mc {
		t.Errorf("MCC %v not better than MC %v", mcc, mc)
	}
	if mcck >= mc {
		t.Errorf("MCCK %v not better than MC %v", mcck, mc)
	}
	t.Logf("makespans: MC=%v MCC=%v MCCK=%v", mc, mcc, mcck)
}

func TestMakespanMatchesLastEndTime(t *testing.T) {
	r := rig(scheduler.NewExclusive(), 2, false)
	jobs := []*job.Job{mkJob(0, 500, 60, 1), mkJob(1, 500, 60, 2)}
	r.run(t, jobs)
	var last units.Tick
	for _, q := range r.pool.Jobs() {
		if q.EndTime > last {
			last = q.EndTime
		}
	}
	if r.pool.Makespan() != last {
		t.Errorf("Makespan %v != last end %v", r.pool.Makespan(), last)
	}
}

func TestRecords(t *testing.T) {
	r := rig(scheduler.NewExclusive(), 1, false)
	r.run(t, []*job.Job{mkJob(0, 500, 60, 1)})
	recs := r.pool.Records()
	if len(recs) != 1 {
		t.Fatalf("records: %d", len(recs))
	}
	rec := recs[0]
	if !rec.Completed || rec.Machine != "slot1@node0" {
		t.Errorf("record %+v", rec)
	}
	if rec.StartTime <= rec.SubmitTime {
		t.Errorf("no dispatch latency: start %v submit %v", rec.StartTime, rec.SubmitTime)
	}
	if rec.EndTime <= rec.StartTime {
		t.Errorf("degenerate times: %+v", rec)
	}
}

func TestUnmatchableJobStalls(t *testing.T) {
	// Under MCCK, a job larger than any device is never pinned and can
	// never match; the stall breaker must fail it rather than negotiate
	// forever.
	r := rig(core.New(core.Config{}), 1, true)
	big := mkJob(0, 9999, 60, 1)
	r.run(t, []*job.Job{big})
	q := r.pool.Jobs()[0]
	if q.State != condor.Failed {
		t.Errorf("unmatchable job state %v, want failed", q.State)
	}
	if r.pool.Stats().Stalled != 1 {
		t.Errorf("stats %+v", r.pool.Stats())
	}
}

func TestOversizedJobFailsFastUnderMCC(t *testing.T) {
	// Under memory-oblivious MCC the same oversized job is dispatched and
	// COSMIC rejects its container outright: a crash, not a hang.
	r := rig(scheduler.NewRandomPack(rng.New(6)), 1, true)
	big := mkJob(0, 9999, 60, 1)
	r.run(t, []*job.Job{big})
	q := r.pool.Jobs()[0]
	if q.State != condor.Failed || q.Crashes == 0 {
		t.Errorf("oversized job state %v crashes %d, want container-kill failure", q.State, q.Crashes)
	}
}

func TestCrashedJobResubmitted(t *testing.T) {
	// A misestimating job crashes under COSMIC containers; with retries it
	// is resubmitted and eventually fails after exhausting them.
	r := rig(scheduler.NewRandomPack(rng.New(7)), 1, true)
	r.pool = condor.NewPool(r.eng, r.clu, scheduler.NewRandomPack(rng.New(7)),
		condor.Config{MaxRetries: 2})
	liar := mkJob(0, 500, 60, 2)
	liar.ActualPeakMem = 900
	r.run(t, []*job.Job{liar})
	q := r.pool.Jobs()[0]
	if q.State != condor.Failed {
		t.Errorf("state %v, want failed after retries", q.State)
	}
	if q.Crashes != 3 {
		t.Errorf("crashes %d, want 3 (initial + 2 retries)", q.Crashes)
	}
	if r.pool.Stats().Resubmits != 2 {
		t.Errorf("resubmits %d, want 2", r.pool.Stats().Resubmits)
	}
}

func TestNegotiationCycleDelayObserved(t *testing.T) {
	// No job may start before NotifyDelay + DispatchLatency.
	r := rig(scheduler.NewExclusive(), 1, false)
	r.run(t, []*job.Job{mkJob(0, 500, 60, 1)})
	rec := r.pool.Records()[0]
	minStart := r.pool.Config().NotifyDelay + r.pool.Config().DispatchLatency
	if rec.StartTime < minStart {
		t.Errorf("start %v before negotiation+dispatch %v", rec.StartTime, minStart)
	}
}

func TestDeterministicPoolRuns(t *testing.T) {
	run := func() units.Tick {
		r := rig(scheduler.NewRandomPack(rng.New(11)), 2, true)
		var jobs []*job.Job
		for i := 0; i < 10; i++ {
			jobs = append(jobs, mkJob(i, 1500, 120, 2))
		}
		r.pool.Submit(jobs)
		r.eng.Run()
		return r.pool.Makespan()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed runs differ: %v vs %v", a, b)
	}
}

func TestAgnosticOversubscribesWithoutCosmic(t *testing.T) {
	// The §III strawman on raw devices: many fat jobs on one card cause
	// crashes (OOM) — exactly what the safe policies prevent.
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: false, Seed: 2})
	pool := condor.NewPool(eng, clu, scheduler.NewAgnostic(rng.New(8)), condor.Config{})
	var jobs []*job.Job
	for i := 0; i < 8; i++ {
		j := mkJob(i, 4000, 240, 2)
		j.ActualPeakMem = 4000
		jobs = append(jobs, j)
	}
	pool.Submit(jobs)
	eng.Run()
	crashes := 0
	for _, q := range pool.Jobs() {
		crashes += q.Crashes
	}
	if crashes == 0 {
		t.Error("agnostic policy on raw devices produced no crashes (expected OOM)")
	}
}

func TestSafePoliciesNeverCrashHonestJobs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy condor.Policy
		cosmic bool
	}{
		{"MC", scheduler.NewExclusive(), false},
		{"MCC", scheduler.NewRandomPack(rng.New(9)), true},
		{"MCCK", core.New(core.Config{}), true},
	} {
		r := rig(tc.policy, 2, tc.cosmic)
		var jobs []*job.Job
		for i := 0; i < 20; i++ {
			jobs = append(jobs, mkJob(i, units.MB(500+i*100), 120, 2))
		}
		r.run(t, jobs)
		for _, q := range r.pool.Jobs() {
			if q.Crashes > 0 || q.State != condor.Completed {
				t.Errorf("%s: job %d state=%v crashes=%d", tc.name, q.Job.ID, q.State, q.Crashes)
			}
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	// One device; a low-priority batch is submitted first, then a
	// high-priority job. The high-priority job must start before the
	// still-pending low-priority ones.
	r := rig(scheduler.NewExclusive(), 1, false)
	var batch []*job.Job
	for i := 0; i < 4; i++ {
		batch = append(batch, mkJob(i, 500, 60, 1))
	}
	urgent := mkJob(99, 500, 60, 1)
	r.pool.Submit(batch)
	r.pool.SubmitWithPriority([]*job.Job{urgent}, 10)
	r.eng.Run()

	var urgentStart units.Tick
	starts := map[int]units.Tick{}
	for _, rec := range r.pool.Records() {
		starts[rec.ID] = rec.StartTime
		if rec.ID == 99 {
			urgentStart = rec.StartTime
		}
	}
	later := 0
	for id, s := range starts {
		if id != 99 && s > urgentStart {
			later++
		}
	}
	if later < 3 {
		t.Errorf("urgent job started at %v but only %d batch jobs started after it", urgentStart, later)
	}
}

func TestPriorityFIFOWithinLevel(t *testing.T) {
	r := rig(scheduler.NewExclusive(), 1, false)
	jobs := []*job.Job{mkJob(0, 500, 60, 1), mkJob(1, 500, 60, 1)}
	r.pool.SubmitWithPriority(jobs[:1], 5)
	r.pool.SubmitWithPriority(jobs[1:], 5)
	r.eng.Run()
	recs := r.pool.Records()
	if recs[0].StartTime > recs[1].StartTime {
		t.Error("same-priority jobs served out of submission order")
	}
}

func TestHostSlotsEnforced(t *testing.T) {
	// HostSlots=2: even with ample memory, at most 2 jobs reside per
	// machine.
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(2)),
		condor.Config{HostSlots: 2})
	var jobs []*job.Job
	for i := 0; i < 8; i++ {
		jobs = append(jobs, mkJob(i, 200, 60, 2))
	}
	pool.Submit(jobs)
	eng.Run()
	if pool.MaxConcurrency() > 2 {
		t.Errorf("max concurrency %d with 2 host slots", pool.MaxConcurrency())
	}
}

func TestExternalPolicyDelaysNegotiation(t *testing.T) {
	// MCCK's reaction delay shifts its first dispatch relative to MCC's.
	runFirstStart := func(p condor.Policy, cosmic bool) units.Tick {
		r := rig(p, 1, cosmic)
		r.run(t, []*job.Job{mkJob(0, 500, 60, 1)})
		return r.pool.Records()[0].StartTime
	}
	mcc := runFirstStart(scheduler.NewRandomPack(rng.New(3)), true)
	mcck := runFirstStart(core.New(core.Config{}), true)
	if mcck <= mcc {
		t.Errorf("MCCK first start %v not after MCC %v (reaction delay missing)", mcck, mcc)
	}
}

func TestFairShareProtectsLightUser(t *testing.T) {
	// User "heavy" floods the queue; user "light" submits a handful just
	// after. With fair-share the light user's jobs are served long before
	// the heavy backlog drains; without, they wait at the tail.
	meanLightWait := func(fairShare bool) units.Tick {
		eng := sim.New()
		eng.MaxSteps = 10_000_000
		clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
		pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(2)),
			condor.Config{FairShare: fairShare})
		var heavy, light []*job.Job
		for i := 0; i < 30; i++ {
			heavy = append(heavy, mkJob(i, 500, 60, 2))
		}
		for i := 100; i < 104; i++ {
			light = append(light, mkJob(i, 500, 60, 2))
		}
		pool.SubmitAs("heavy", heavy, 0)
		eng.At(5*units.Second, func() { pool.SubmitAs("light", light, 0) })
		eng.Run()
		var total units.Tick
		n := 0
		for _, rec := range pool.Records() {
			if rec.ID >= 100 {
				total += rec.WaitTime()
				n++
			}
		}
		return total / units.Tick(n)
	}
	unfair := meanLightWait(false)
	fair := meanLightWait(true)
	if fair*2 >= unfair {
		t.Errorf("fair-share light-user wait %v not well below FIFO wait %v", fair, unfair)
	}
}

func TestFairShareUsageAccounting(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(3)),
		condor.Config{FairShare: true})
	pool.SubmitAs("alice", []*job.Job{mkJob(0, 500, 60, 2)}, 0)
	pool.SubmitAs("bob", []*job.Job{mkJob(1, 500, 60, 1)}, 0)
	eng.Run()
	if pool.Usage("alice") <= pool.Usage("bob") {
		t.Errorf("usage accounting wrong: alice %v, bob %v (alice ran longer)",
			pool.Usage("alice"), pool.Usage("bob"))
	}
	if pool.Usage("nobody") != 0 {
		t.Error("phantom usage for unknown user")
	}
}

// TestFairShareKeepsOrderWithinUser pins the stability of the fair-share
// reorder: after a cycle sorts the queue by user usage, each user's jobs
// keep the (priority desc, submission) order insertPending gave them. Each
// user has 20 pending jobs, all tied on the sort key, so an unstable sort
// cannot hide behind pdqsort's insertion sort for 12 or fewer elements.
func TestFairShareKeepsOrderWithinUser(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{FairShare: true})
	pool.SubmitAs("heavy", []*job.Job{mkJob(1000, 500, 60, 1)}, 0)
	eng.Run()
	if pool.Usage("heavy") == 0 {
		t.Fatal("warm-up job left heavy with no usage")
	}
	// Park the queue: with every machine offline the cycle sorts it and
	// matches nothing.
	for _, m := range pool.Machines() {
		pool.SetOffline(m, true)
	}
	for i := 0; i < 40; i++ {
		user := []string{"heavy", "light"}[i%2]
		pool.SubmitAs(user, []*job.Job{mkJob(i, 500, 60, 1)}, (i/2)%3)
	}
	pool.NegotiateOnce()

	pending := pool.Pending()
	if len(pending) != 40 {
		t.Fatalf("%d pending jobs, want 40", len(pending))
	}
	last := map[string]*condor.QueuedJob{}
	for i, q := range pending {
		want := "heavy"
		if i < 20 {
			want = "light"
		}
		if q.User != want {
			t.Fatalf("position %d holds a %s job, want %s (least-served user first)", i, q.User, want)
		}
		if prev := last[q.User]; prev != nil && (prev.Priority < q.Priority ||
			prev.Priority == q.Priority && prev.Job.ID > q.Job.ID) {
			t.Fatalf("%s: job %d (priority %d) follows job %d (priority %d); want priority, then submission order",
				q.User, q.Job.ID, q.Priority, prev.Job.ID, prev.Priority)
		}
		last[q.User] = q
	}
}

func TestFairShareOffPreservesFIFO(t *testing.T) {
	// Without fair-share, a later user's jobs wait behind the backlog:
	// strict FIFO across users.
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(4)), condor.Config{})
	var first, second []*job.Job
	for i := 0; i < 10; i++ {
		first = append(first, mkJob(i, 500, 60, 1))
	}
	second = append(second, mkJob(100, 500, 60, 1))
	pool.SubmitAs("a", first, 0)
	pool.SubmitAs("b", second, 0)
	eng.Run()
	var bStart units.Tick
	earlierStarts := 0
	for _, rec := range pool.Records() {
		if rec.ID == 100 {
			bStart = rec.StartTime
		}
	}
	for _, rec := range pool.Records() {
		if rec.ID != 100 && rec.StartTime < bStart {
			earlierStarts++
		}
	}
	if earlierStarts < 8 {
		t.Errorf("only %d of user a's jobs started before b's (want FIFO dominance)", earlierStarts)
	}
}

func TestClaimReuseSkipsNegotiation(t *testing.T) {
	// With claim reuse, the second job starts right when the first ends
	// (plus dispatch latency) instead of waiting for a negotiation.
	run := func(reuse bool) units.Tick {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: false, Seed: 1})
		pool := condor.NewPool(eng, clu, scheduler.NewExclusive(),
			condor.Config{ClaimReuse: reuse})
		pool.Submit([]*job.Job{mkJob(0, 500, 60, 1), mkJob(1, 500, 60, 1)})
		eng.Run()
		for _, rec := range pool.Records() {
			if rec.ID == 1 {
				return rec.StartTime
			}
		}
		t.Fatal("job 1 missing")
		return 0
	}
	with := run(true)
	without := run(false)
	if with >= without {
		t.Errorf("claim reuse start %v not earlier than negotiated start %v", with, without)
	}
}

func TestClaimReuseCountsAndCompletes(t *testing.T) {
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: 2, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(5)),
		condor.Config{ClaimReuse: true})
	var jobs []*job.Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, mkJob(i, 800, 120, 2))
	}
	pool.Submit(jobs)
	eng.Run()
	if got := completedCount(pool); got != 30 {
		t.Fatalf("completed %d/30", got)
	}
	if pool.Stats().ClaimReuses == 0 {
		t.Error("no claim reuses recorded")
	}
}

func TestClaimReuseRespectsPins(t *testing.T) {
	// Under MCCK, a vacated machine may only take jobs pinned to it.
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: 2, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, core.New(core.Config{}),
		condor.Config{ClaimReuse: true})
	var jobs []*job.Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, mkJob(i, 3000, 120, 2))
	}
	pool.Submit(jobs)
	eng.Run()
	if got := completedCount(pool); got != 20 {
		t.Fatalf("completed %d/20", got)
	}
	// The memory guard lives in the machine requirements, so reuse can
	// never overcommit declared memory.
	for _, m := range pool.Machines() {
		if m.FreeMem < 0 {
			t.Errorf("machine %s overcommitted: %v", m.Name, m.FreeMem)
		}
	}
}

func TestEventLogLifecycle(t *testing.T) {
	r := rig(scheduler.NewRandomPack(rng.New(20)), 1, true)
	log := observeJobs(r.pool)
	r.run(t, []*job.Job{mkJob(0, 500, 60, 1)})
	hist := log.of(0)
	wantOrder := []string{"submit", "match", "execute", "terminate"}
	if len(hist) != len(wantOrder) {
		t.Fatalf("history %v", hist)
	}
	for i, e := range hist {
		if e.Kind != wantOrder[i] {
			t.Errorf("event %d = %v, want %v", i, e.Kind, wantOrder[i])
		}
	}
	// Times must be non-decreasing and machine recorded at match/execute.
	for i := 1; i < len(hist); i++ {
		if hist[i].At < hist[i-1].At {
			t.Error("event times regress")
		}
	}
	if hist[1].Str("machine") == "" || hist[2].Str("machine") == "" {
		t.Error("match/execute missing machine")
	}
}

func TestEventLogCrashPath(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(21)),
		condor.Config{MaxRetries: 1})
	log := observeJobs(pool)
	liar := mkJob(0, 500, 60, 1)
	liar.ActualPeakMem = 900
	pool.Submit([]*job.Job{liar})
	eng.Run()
	if log.count("crash") != 2 {
		t.Errorf("crashes logged %d, want 2", log.count("crash"))
	}
	if log.count("resubmit") != 1 {
		t.Errorf("resubmits logged %d, want 1", log.count("resubmit"))
	}
	if log.count("terminate") != 0 {
		t.Error("terminate logged for a failed job")
	}
}

func TestUsageSingleChargeAcrossResubmit(t *testing.T) {
	// Regression: fair-share usage was accrued from the job's *first* start
	// on every completion or crash, so a crashed-and-resubmitted job charged
	// its earlier runs (and the idle re-queue gaps between them) again on
	// each subsequent run. Usage must equal the sum of the job's actual
	// execution intervals, reconstructed here from the pool's obs events.
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(7)),
		condor.Config{MaxRetries: 2})
	log := observeJobs(pool)
	liar := mkJob(0, 500, 60, 2)
	liar.ActualPeakMem = 900 // container-killed at first offload, every run
	pool.SubmitAs("alice", []*job.Job{liar}, 0)
	eng.Run()
	if !pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
	q := pool.Jobs()[0]
	if q.Crashes < 2 {
		t.Fatalf("job crashed %d times; test needs at least two runs", q.Crashes)
	}

	var want units.Tick
	var lastExec units.Tick
	for _, e := range log.of(0) {
		switch e.Kind {
		case "execute":
			lastExec = e.At
		case "crash", "terminate":
			want += e.At - lastExec
		}
	}
	if got := pool.Usage("alice"); got != want {
		t.Errorf("usage %v != %v summed from the job's execution intervals", got, want)
	}
}

// TestMatchCacheBoundedUnderDynamicArrivals is the cache-growth regression
// test for the autocluster verdict arrays: across a long dynamic-arrival run
// whose 6000 jobs all carry distinct ad signatures (the worst case — every
// job is its own autocluster), the resident cache size must stay bounded by
// the signature-table cap per machine rather than grow with the total number
// of jobs ever processed. The run interns 6000 distinct signatures,
// overflowing the 4096-entry table, so the era reset that enforces the cap is
// exercised for real.
func TestMatchCacheBoundedUnderDynamicArrivals(t *testing.T) {
	const (
		waves    = 250
		waveSize = 25
		nodes    = 4
	)
	t.Run("autoclusters", func(t *testing.T) {
		eng := sim.New()
		eng.MaxSteps = 100_000_000
		clu := cluster.New(eng, cluster.Config{Nodes: nodes, Seed: 1})
		// Exclusive's machine Requirements reference the job's memory
		// request, so the distinct per-job requests below yield distinct
		// signatures (RandomPack's "true" would collapse them all into
		// one autocluster).
		pool := condor.NewPool(eng, clu, scheduler.NewExclusive(),
			condor.Config{})
		peak, maxLive, maxClusters := 0, 0, 0
		sample := func() {
			if n := pool.MatchCacheLen(); n > peak {
				peak = n
			}
			if n := len(pool.Pending()) + pool.InFlight() + 1; n > maxLive {
				maxLive = n
			}
			if n := pool.AutoclusterCount(); n > maxClusters {
				maxClusters = n
			}
		}
		for w := 0; w < waves; w++ {
			wave := w
			eng.After(units.Tick(wave)*50*units.Second, func() {
				jobs := make([]*job.Job, waveSize)
				for i := range jobs {
					id := wave*waveSize + i
					// A distinct memory request per job: every ad signs
					// into its own autocluster.
					jobs[i] = mkJob(id, units.MB(50+id), 16, 1)
				}
				sample()
				pool.Submit(jobs)
				sample()
			})
		}
		eng.Run()
		sample()
		if !pool.Done() {
			t.Fatal("pool not done after engine drained")
		}
		if got := completedCount(pool); got != waves*waveSize {
			t.Fatalf("completed %d/%d", got, waves*waveSize)
		}
		// One verdict slot per (machine, signature-table entry).
		bound := nodes*4096 + 64
		if maxClusters > 4096 {
			t.Errorf("signature table grew to %d entries: era reset not enforcing the cap", maxClusters)
		}
		if peak > bound {
			t.Errorf("peak cache size %d exceeds bound %d", peak, bound)
		}
		t.Logf("peak cache %d (bound %d, total pairs %d, max live %d, autoclusters %d)",
			peak, bound, waves*waveSize*nodes, maxLive, maxClusters)
	})

	// An era reset in the middle of a cycle must not leave that cycle's
	// rejection stamps behind: the new era reuses verdict indices from 0, so
	// a stamp left at an old index would reject a fresh, matchable cluster.
	// Fill the signature table to its cap with unmatchable jobs — the first
	// of them holds index 0 — then queue one small job behind them. In the
	// next cycle every unmatchable cluster is stamped before the small job's
	// new signature overflows the table and lands at index 0 of a new era.
	t.Run("era reset mid-cycle", func(t *testing.T) {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: nodes, Seed: 1})
		pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{})
		const tableCap = 4096
		ghosts := make([]*job.Job, tableCap)
		for i := range ghosts {
			ghosts[i] = unmatchableJob(i)
			ghosts[i].Mem += units.MB(i) // one autocluster each
		}
		pool.Submit(ghosts)
		pool.NegotiateOnce()
		if n := pool.AutoclusterCount(); n != tableCap {
			t.Fatalf("signature table holds %d entries, want it full at %d", n, tableCap)
		}
		pool.Submit([]*job.Job{mkJob(tableCap, 500, 60, 1)})
		pool.NegotiateOnce()
		if n := pool.AutoclusterCount(); n != 1 {
			t.Fatalf("signature table holds %d entries after the overflowing cycle, want 1 "+
				"(the era reset did not happen mid-cycle)", n)
		}
		if small := pool.Jobs()[tableCap]; small.State != condor.Dispatched {
			t.Fatalf("small job is %v after the cycle, want dispatched: a stale rejection "+
				"stamp survived the era reset", small.State)
		}
	})
}

// TestClaimReleaseAdUpdateDoesNotAllocate: the four resource levels a
// machine re-advertises at every claim and release rebind existing integer
// attributes, which overwrite their ad slots in place.
func TestClaimReleaseAdUpdateDoesNotAllocate(t *testing.T) {
	r := rig(scheduler.NewRandomPack(rng.New(3)), 1, true)
	m := r.pool.Machines()[0]
	q := &condor.QueuedJob{Job: mkJob(1, 500, 60, 1)}
	version := m.Ad.Version()
	n := testing.AllocsPerRun(100, func() {
		m.FreeMem -= q.Job.Mem
		m.ResidentThreads += q.Job.Threads
		m.Resident = append(m.Resident, q)
		m.UpdateAd()
		m.FreeMem += q.Job.Mem
		m.ResidentThreads -= q.Job.Threads
		m.Resident = m.Resident[:len(m.Resident)-1]
		m.UpdateAd()
	})
	if n != 0 {
		t.Errorf("a claim/release pair of ad updates allocates %.1f times, want 0", n)
	}
	if m.Ad.Version() == version {
		t.Error("ad updates left the machine ad's version unchanged")
	}
}
