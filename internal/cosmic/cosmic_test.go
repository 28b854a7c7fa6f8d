package cosmic

import (
	"testing"

	"phishare/internal/job"
	"phishare/internal/phi"
	"phishare/internal/rng"
	"phishare/internal/sim"
	"phishare/internal/units"
)

func mkJob(id int, mem, actual units.MB, threads units.Threads) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Workload: "test",
		Mem: mem, Threads: threads, ActualPeakMem: actual,
		Phases: []job.Phase{{Kind: job.OffloadPhase, Duration: 1000, Threads: threads}},
	}
}

func newMgr(eng *sim.Engine) *Manager {
	// The 5110P with the contention model disabled, so timings stay exact.
	bare := phi.Config{Cores: 60, ThreadsPerCore: 4, Memory: units.GB(8)}
	dev := phi.NewDevice(eng, "node0/mic0", bare, rng.New(1), nil)
	return New(eng, dev)
}

// outcomeFunc adapts a closure to an offload's end notification.
type outcomeFunc func(phi.OffloadOutcome)

func (f outcomeFunc) Fire(tag uint64) { f(phi.OutcomeOf(tag)) }

// killFunc adapts a closure to a process's kill notification.
type killFunc func(phi.KillReason)

func (f killFunc) Fire(tag uint64) { f(phi.KillReason(tag)) }

// admitFunc adapts a closure to an admission's readiness notification.
type admitFunc func(*phi.Process)

func (f admitFunc) Admitted(p *phi.Process) { f(p) }

// offload submits an offload whose end runs done.
func offload(m *Manager, p *phi.Process, threads units.Threads, work units.Tick, done func(phi.OffloadOutcome)) {
	m.Offload(p, threads, work, outcomeFunc(done), 0)
}

func TestNewEnablesAffinitization(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	if !m.dev.Affinitized {
		t.Error("COSMIC did not enable affinitized core accounting")
	}
}

func TestOffloadDispatchesWhenCapacityFree(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	p := m.Attach(mkJob(1, 500, 450, 120))
	var end units.Tick
	offload(m, p, 120, 3000, func(o phi.OffloadOutcome) {
		if o != phi.OffloadCompleted {
			t.Errorf("outcome %v", o)
		}
		end = eng.Now()
	})
	eng.Run()
	if end != 3000 {
		t.Errorf("offload ended at %v, want 3000", end)
	}
	if s := m.Stats(); s.OffloadsDispatched != 1 || s.OffloadsQueued != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestSerializationPreventsOversubscription(t *testing.T) {
	// Fig. 2: two 240-thread offloads cannot overlap; the second waits.
	eng := sim.New()
	m := newMgr(eng)
	p1 := m.Attach(mkJob(1, 500, 450, 240))
	p2 := m.Attach(mkJob(2, 500, 450, 240))
	var e1, e2 units.Tick
	offload(m, p1, 240, 2000, func(phi.OffloadOutcome) { e1 = eng.Now() })
	offload(m, p2, 240, 2000, func(phi.OffloadOutcome) { e2 = eng.Now() })
	if m.dev.RunningThreads() > 240 {
		t.Fatalf("device oversubscribed: %v threads", m.dev.RunningThreads())
	}
	eng.Run()
	if e1 != 2000 {
		t.Errorf("first offload ended at %v, want 2000", e1)
	}
	if e2 != 4000 {
		t.Errorf("second offload ended at %v, want 4000 (serialized)", e2)
	}
	if s := m.Stats(); s.OffloadsQueued != 1 || s.TotalQueueWait != 2000 {
		t.Errorf("stats %+v, want 1 queued with 2000 wait", s)
	}
}

func TestPartialOffloadsOverlap(t *testing.T) {
	// Fig. 3: two 120-thread offloads overlap without oversubscription and
	// both finish at full speed.
	eng := sim.New()
	m := newMgr(eng)
	var ends []units.Tick
	for i := 0; i < 2; i++ {
		p := m.Attach(mkJob(i, 500, 450, 120))
		offload(m, p, 120, 3000, func(phi.OffloadOutcome) { ends = append(ends, eng.Now()) })
	}
	eng.Run()
	for _, e := range ends {
		if e != 3000 {
			t.Errorf("overlapping offload ended at %v, want 3000", e)
		}
	}
}

func TestFIFOHeadOfLineBlocks(t *testing.T) {
	// Running 180; queue [120-wide, 60-narrow]. Strict arrival order: the
	// 60 must NOT overtake the blocked 120 even though it would fit —
	// fairness over work conservation (see package comment).
	eng := sim.New()
	m := newMgr(eng)
	pBig := m.Attach(mkJob(1, 500, 450, 180))
	pMid := m.Attach(mkJob(2, 500, 450, 120))
	pSmall := m.Attach(mkJob(3, 500, 450, 60))
	var midEnd, smallEnd units.Tick
	offload(m, pBig, 180, 5000, func(phi.OffloadOutcome) {})
	offload(m, pMid, 120, 1000, func(phi.OffloadOutcome) { midEnd = eng.Now() })
	offload(m, pSmall, 60, 1000, func(phi.OffloadOutcome) { smallEnd = eng.Now() })
	eng.Run()
	if midEnd != 6000 {
		t.Errorf("mid offload ended at %v, want 6000 (after the 180 frees)", midEnd)
	}
	if smallEnd != 6000 {
		t.Errorf("narrow offload ended at %v, want 6000 (dispatched alongside the 120)", smallEnd)
	}
}

func TestBypassLetsNarrowOffloadPass(t *testing.T) {
	// Same scenario with Bypass: the 60 slips past the blocked 120.
	eng := sim.New()
	m := newMgr(eng)
	m.Bypass = true
	pBig := m.Attach(mkJob(1, 500, 450, 180))
	pMid := m.Attach(mkJob(2, 500, 450, 120))
	pSmall := m.Attach(mkJob(3, 500, 450, 60))
	var midEnd, smallEnd units.Tick
	offload(m, pBig, 180, 5000, func(phi.OffloadOutcome) {})
	offload(m, pMid, 120, 1000, func(phi.OffloadOutcome) { midEnd = eng.Now() })
	offload(m, pSmall, 60, 1000, func(phi.OffloadOutcome) { smallEnd = eng.Now() })
	eng.Run()
	if smallEnd != 1000 {
		t.Errorf("narrow offload ended at %v, want 1000 (first-fit bypass)", smallEnd)
	}
	if midEnd != 6000 {
		t.Errorf("mid offload ended at %v, want 6000 (after the 180 frees)", midEnd)
	}
}

func TestFIFOPreventsWideOffloadStarvation(t *testing.T) {
	// A 240-wide offload behind a stream of 60-wide ones: under FIFO it
	// runs as soon as the residents drain, rather than being leapfrogged
	// forever.
	eng := sim.New()
	m := newMgr(eng)
	for i := 0; i < 4; i++ {
		p := m.Attach(mkJob(i, 100, 90, 60))
		offload(m, p, 60, 2000, func(phi.OffloadOutcome) {})
	}
	pWide := m.Attach(mkJob(10, 500, 450, 240))
	var wideEnd units.Tick
	offload(m, pWide, 240, 1000, func(phi.OffloadOutcome) { wideEnd = eng.Now() })
	// More narrow offloads arriving behind the wide one.
	for i := 20; i < 24; i++ {
		p := m.Attach(mkJob(i, 100, 90, 60))
		offload(m, p, 60, 2000, func(phi.OffloadOutcome) {})
	}
	eng.Run()
	if wideEnd != 3000 {
		t.Errorf("wide offload ended at %v, want 3000 (right after residents drain)", wideEnd)
	}
}

func TestContainerKillsMisestimatingJobAtFirstOffload(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	j := mkJob(1, 500, 800, 60) // actual 800 > declared 500
	p := m.Attach(j)
	if !p.Alive() {
		t.Fatal("job killed at attach; container should trip at first offload")
	}
	var killed phi.KillReason = -1
	p.OnKill = killFunc(func(r phi.KillReason) { killed = r })
	var outcome phi.OffloadOutcome = -1
	offload(m, p, 60, 1000, func(o phi.OffloadOutcome) { outcome = o })
	eng.Run()
	if killed != phi.KillContainer {
		t.Errorf("kill reason %v, want container", killed)
	}
	if outcome != phi.OffloadAborted {
		t.Errorf("offload outcome %v, want aborted", outcome)
	}
	if m.Stats().ContainerKills != 1 {
		t.Errorf("stats %+v", m.Stats())
	}
}

func TestContainerKillsAtAttachWhenInitialCommitExceeds(t *testing.T) {
	// Initial commit is 30% of actual; actual = 4x declared trips at attach.
	eng := sim.New()
	m := newMgr(eng)
	j := mkJob(1, 100, 400, 60)
	p := m.Attach(j)
	if p.Alive() {
		t.Error("grossly misestimating job survived attach")
	}
	eng.Run()
}

func TestContainerProtectsOtherTenants(t *testing.T) {
	// An honest job sharing the device with a misestimating one must
	// complete untouched — the whole point of the containers (§IV-D2).
	eng := sim.New()
	m := newMgr(eng)
	honest := m.Attach(mkJob(1, 4000, 3800, 60))
	liar := m.Attach(mkJob(2, 500, 6000, 60))
	var honestOutcome phi.OffloadOutcome = -1
	offload(m, honest, 60, 1000, func(o phi.OffloadOutcome) { honestOutcome = o })
	offload(m, liar, 60, 1000, func(phi.OffloadOutcome) {})
	eng.Run()
	if honestOutcome != phi.OffloadCompleted {
		t.Errorf("honest job outcome %v, want completed", honestOutcome)
	}
	if m.dev.Stats().OOMKills != 0 {
		t.Error("device OOM killer fired despite container protection")
	}
}

func TestOffloadForDeadProcessAborts(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	p := m.Attach(mkJob(1, 500, 450, 60))
	m.Detach(p)
	var outcome phi.OffloadOutcome = -1
	offload(m, p, 60, 1000, func(o phi.OffloadOutcome) { outcome = o })
	eng.Run()
	if outcome != phi.OffloadAborted {
		t.Errorf("outcome %v, want aborted", outcome)
	}
}

func TestQueuedOffloadAbortsWhenOwnerDies(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	p1 := m.Attach(mkJob(1, 500, 450, 240))
	p2 := m.Attach(mkJob(2, 500, 450, 240))
	offload(m, p1, 240, 5000, func(phi.OffloadOutcome) {})
	var outcome phi.OffloadOutcome = -1
	offload(m, p2, 240, 1000, func(o phi.OffloadOutcome) { outcome = o })
	eng.At(1000, func() { m.Detach(p2) })
	eng.Run()
	if outcome != phi.OffloadAborted {
		t.Errorf("queued offload outcome %v, want aborted after owner death", outcome)
	}
}

func TestTooWideOffloadPanics(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	j := mkJob(1, 500, 450, 240)
	j.Threads = 300 // bypass normal validation to hit the guard
	p := m.Attach(j)
	defer func() {
		if recover() == nil {
			t.Error("offload wider than hardware did not panic")
		}
	}()
	offload(m, p, 300, 1000, func(phi.OffloadOutcome) {})
}

func TestManyJobsNeverOversubscribe(t *testing.T) {
	// Stress: 30 jobs with mixed widths; the device must never exceed 240
	// in-flight threads at any event boundary.
	eng := sim.New()
	m := newMgr(eng)
	widths := []units.Threads{60, 120, 180, 240}
	oversub := false
	check := func() {
		if m.dev.RunningThreads() > 240 {
			oversub = true
		}
	}
	for i := 0; i < 30; i++ {
		w := widths[i%len(widths)]
		p := m.Attach(mkJob(i, 100, 90, w))
		i := i
		offload(m, p, w, units.Tick(500+100*i), func(phi.OffloadOutcome) { check() })
	}
	for tick := units.Tick(0); tick < 20000; tick += 500 {
		eng.At(tick, check)
	}
	eng.Run()
	if oversub {
		t.Error("device oversubscribed under COSMIC")
	}
	if got := m.dev.Stats().OffloadsCompleted; got != 30 {
		t.Errorf("%d offloads completed, want 30", got)
	}
}

func TestMaxQueueLenTracked(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	for i := 0; i < 4; i++ {
		p := m.Attach(mkJob(i, 100, 90, 240))
		offload(m, p, 240, 1000, func(phi.OffloadOutcome) {})
	}
	eng.Run()
	if m.Stats().MaxQueueLen != 3 {
		t.Errorf("MaxQueueLen = %d, want 3", m.Stats().MaxQueueLen)
	}
}

func TestAdmissionFIFOOrder(t *testing.T) {
	// Admission is strict FIFO: a small job queued behind a blocked big
	// one waits for it (no admission leapfrogging — mirrors the offload
	// queue's fairness rationale).
	eng := sim.New()
	m := newMgr(eng)
	resident := m.Attach(mkJob(0, 6000, 5400, 60))
	var order []int
	m.Admit(mkJob(1, 5000, 4500, 60), admitFunc(func(p *phi.Process) { order = append(order, 1) }))
	m.Admit(mkJob(2, 1000, 900, 60), admitFunc(func(p *phi.Process) { order = append(order, 2) }))
	if len(order) != 0 {
		t.Fatalf("admissions happened with the device full: %v", order)
	}
	if m.AdmitQueueLen() != 2 {
		t.Fatalf("admit queue %d", m.AdmitQueueLen())
	}
	m.Detach(resident)
	eng.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("admission order %v, want [1 2]", order)
	}
}

func TestDeclaredFreeAccounting(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	if m.DeclaredFree() != 8192 {
		t.Fatalf("fresh DeclaredFree %v", m.DeclaredFree())
	}
	p := m.Attach(mkJob(1, 3000, 2700, 60))
	if m.DeclaredFree() != 5192 {
		t.Errorf("DeclaredFree after attach %v", m.DeclaredFree())
	}
	m.Detach(p)
	if m.DeclaredFree() != 8192 {
		t.Errorf("DeclaredFree after detach %v", m.DeclaredFree())
	}
}

func TestOversizedAdmitDoesNotDisturbTenants(t *testing.T) {
	// Regression: the oversized fail-fast path used to attach the doomed
	// job before killing it. The transient 30% initial commit could push
	// the device past physical memory and OOM-kill an innocent co-resident.
	// The reject must never touch device memory.
	eng := sim.New()
	m := newMgr(eng)
	honest := m.Attach(mkJob(1, 7000, 6300, 60))
	var honestOutcome phi.OffloadOutcome = -1
	offload(m, honest, 60, 1000, func(o phi.OffloadOutcome) { honestOutcome = o })

	var killed phi.KillReason = -1
	m.Admit(mkJob(2, 9000, 9000, 60), admitFunc(func(p *phi.Process) {
		if p.Alive() {
			t.Error("oversized job admitted alive")
		}
		p.OnKill = killFunc(func(r phi.KillReason) { killed = r })
	}))
	eng.Run()

	if honestOutcome != phi.OffloadCompleted {
		t.Errorf("honest tenant outcome %v, want completed", honestOutcome)
	}
	if n := m.dev.Stats().OOMKills; n != 0 {
		t.Errorf("device OOM killer fired %d times during an oversized reject", n)
	}
	if killed != phi.KillContainer {
		t.Errorf("oversized job kill reason %v, want container", killed)
	}
	if m.Stats().ContainerKills != 1 {
		t.Errorf("stats %+v, want 1 container kill", m.Stats())
	}
}

func TestMaxQueueLenIgnoresImmediateDispatch(t *testing.T) {
	// Regression: MaxQueueLen was bumped before pump ran, so an offload
	// that dispatched immediately on an idle device counted as having
	// queued. A never-contended device must report a zero peak.
	eng := sim.New()
	m := newMgr(eng)
	p := m.Attach(mkJob(1, 500, 450, 240))
	offload(m, p, 240, 1000, func(phi.OffloadOutcome) {})
	eng.Run()
	if n := m.Stats().MaxQueueLen; n != 0 {
		t.Errorf("MaxQueueLen = %d after an uncontended offload, want 0", n)
	}
}

// TestDeclaredFreePurgeIsOrderDeterministic pins the determinism contract
// on the admitted-set bookkeeping — the philint:mapiter "live instance"
// adjudicated in this package. The set used to be a pointer-keyed map
// whose only traversal (DeclaredFree) summed integer MB while purging the
// dead, so the map's randomized order was not observable; it is now an
// admission-ordered slice, making every current and future traversal
// deterministic by construction rather than by adjudication. This test
// pins the purge, the accounting, and the preserved admission order.
func TestDeclaredFreePurgeIsOrderDeterministic(t *testing.T) {
	eng := sim.New()
	m := newMgr(eng)
	var procs []*phi.Process
	for i := 0; i < 6; i++ {
		procs = append(procs, m.Attach(mkJob(i, 1000, 900, 60)))
	}
	// Kill three jobs behind the manager's back, as a device failure or
	// OOM would: DeclaredFree must purge them lazily.
	for _, i := range []int{1, 3, 4} {
		m.dev.Kill(procs[i], phi.KillDeviceFailure)
	}
	want := units.MB(8192 - 3*1000)
	if got := m.DeclaredFree(); got != want {
		t.Errorf("DeclaredFree after kills = %v, want %v", got, want)
	}
	// The purge ran and the survivors kept admission order.
	wantIDs := []int{0, 2, 5}
	if len(m.admitted) != len(wantIDs) {
		t.Fatalf("admitted %d processes after purge, want %d", len(m.admitted), len(wantIDs))
	}
	for i, id := range wantIDs {
		if m.admitted[i].Job.ID != id {
			t.Errorf("admitted[%d] = job %d, want %d (admission order lost)", i, m.admitted[i].Job.ID, id)
		}
	}
	// Repeated calls are stable.
	if got := m.DeclaredFree(); got != want {
		t.Errorf("DeclaredFree on repeat = %v, want %v", got, want)
	}
	// Detaching from the middle preserves the order of the rest.
	m.Detach(procs[2])
	if len(m.admitted) != 2 || m.admitted[0].Job.ID != 0 || m.admitted[1].Job.ID != 5 {
		t.Errorf("admission order after mid-detach: got %d processes", len(m.admitted))
	}
}
