package phi

import (
	"strings"
	"testing"

	"phishare/internal/job"
	"phishare/internal/rng"
	"phishare/internal/sim"
	"phishare/internal/units"
)

func mkJob(id int, mem units.MB, threads units.Threads) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Workload: "test",
		Mem: mem, Threads: threads, ActualPeakMem: mem,
		Phases: []job.Phase{{Kind: job.OffloadPhase, Duration: 1000, Threads: threads}},
	}
}

// bareConfig is the 5110P with the contention model disabled: pure
// hardware limits only, so timing expectations stay exact.
func bareConfig() Config {
	return Config{Cores: 60, ThreadsPerCore: 4, Memory: units.GB(8)}
}

// newDev builds a contention-free device so timing expectations stay exact;
// the spin-contention model has its own tests below.
func newDev(eng *sim.Engine) *Device {
	return NewDevice(eng, "node0/mic0", bareConfig(), rng.New(1), nil)
}

// outcomeFunc adapts a closure to an offload's end notification.
type outcomeFunc func(OffloadOutcome)

func (f outcomeFunc) Fire(tag uint64) { f(OutcomeOf(tag)) }

// killFunc adapts a closure to a process's kill notification.
type killFunc func(KillReason)

func (f killFunc) Fire(tag uint64) { f(KillReason(tag)) }

// startOffload starts an offload whose end runs done.
func startOffload(d *Device, p *Process, threads units.Threads, work units.Tick, done func(OffloadOutcome)) {
	d.StartOffload(p, threads, work, outcomeFunc(done), 0)
}

func TestConfigHWThreads(t *testing.T) {
	if DefaultConfig().HWThreads() != 240 {
		t.Errorf("default HW threads = %v, want 240", DefaultConfig().HWThreads())
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	NewDevice(sim.New(), "x", Config{}, nil, nil)
}

func TestSingleOffloadFullSpeed(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	p := d.Attach(mkJob(1, 500, 240))
	var doneAt units.Tick
	var outcome OffloadOutcome
	startOffload(d, p, 240, 5000, func(o OffloadOutcome) {
		doneAt = eng.Now()
		outcome = o
	})
	eng.Run()
	if outcome != OffloadCompleted {
		t.Fatalf("outcome = %v", outcome)
	}
	if doneAt != 5000 {
		t.Errorf("offload finished at %v, want 5000", doneAt)
	}
	if d.Stats().OffloadsCompleted != 1 {
		t.Errorf("stats %+v", d.Stats())
	}
}

func TestAffinitizedConcurrentOffloadsFullSpeed(t *testing.T) {
	// Two 120-thread offloads, affinitized: disjoint cores, no slowdown.
	eng := sim.New()
	d := newDev(eng)
	d.Affinitized = true
	var ends []units.Tick
	for i := 0; i < 2; i++ {
		p := d.Attach(mkJob(i, 500, 120))
		startOffload(d, p, 120, 4000, func(OffloadOutcome) {
			ends = append(ends, eng.Now())
		})
	}
	eng.Run()
	for _, e := range ends {
		if e != 4000 {
			t.Errorf("affinitized concurrent offload ended at %v, want 4000", e)
		}
	}
}

func TestRawOverlapSlowsDown(t *testing.T) {
	// Default MPSS placement: two 120-thread offloads overlap on the same
	// 30 cores (120 HW threads capacity vs 240 demand) => half speed.
	eng := sim.New()
	d := newDev(eng)
	var ends []units.Tick
	for i := 0; i < 2; i++ {
		p := d.Attach(mkJob(i, 500, 120))
		startOffload(d, p, 120, 4000, func(OffloadOutcome) {
			ends = append(ends, eng.Now())
		})
	}
	eng.Run()
	for _, e := range ends {
		if e != 8000 {
			t.Errorf("overlapping offload ended at %v, want 8000 (2x slowdown)", e)
		}
	}
}

func TestThreadOversubscriptionSlowdown(t *testing.T) {
	// Four 240-thread offloads in raw mode: demand 960 over 240 capacity =>
	// 4x slowdown, the §II-C regime ([6] reports up to 8x with more).
	eng := sim.New()
	d := newDev(eng)
	var ends []units.Tick
	for i := 0; i < 4; i++ {
		p := d.Attach(mkJob(i, 500, 240))
		startOffload(d, p, 240, 2000, func(OffloadOutcome) {
			ends = append(ends, eng.Now())
		})
	}
	eng.Run()
	if len(ends) != 4 {
		t.Fatalf("%d offloads finished, want 4", len(ends))
	}
	for _, e := range ends {
		if e != 8000 {
			t.Errorf("oversubscribed offload ended at %v, want 8000", e)
		}
	}
}

func TestStaggeredSharingAccountsProgress(t *testing.T) {
	// Offload A (240 threads, 4000 work) runs alone for 2000 ticks, then B
	// (240 threads, 1000 work) joins: both at half speed. B needs 1000 work
	// => 2000 ticks => finishes at 4000, with A at 1000 work remaining.
	// Alone again at full speed, A finishes at 5000.
	eng := sim.New()
	d := newDev(eng)
	pa := d.Attach(mkJob(1, 500, 240))
	pb := d.Attach(mkJob(2, 500, 240))
	var aEnd, bEnd units.Tick
	startOffload(d, pa, 240, 4000, func(OffloadOutcome) { aEnd = eng.Now() })
	eng.At(2000, func() {
		startOffload(d, pb, 240, 1000, func(OffloadOutcome) { bEnd = eng.Now() })
	})
	eng.Run()
	if bEnd != 4000 {
		t.Errorf("B ended at %v, want 4000", bEnd)
	}
	if aEnd != 5000 {
		t.Errorf("A ended at %v, want 5000", aEnd)
	}
}

func TestOOMKillsOnOversubscribedMemory(t *testing.T) {
	// Two 5 GB jobs on an 8 GB card: attach commits 30%, fine; the second
	// offload commit pushes it over and the OOM killer fires.
	eng := sim.New()
	d := newDev(eng)
	j1, j2 := mkJob(1, 5000, 60), mkJob(2, 5000, 60)
	p1 := d.Attach(j1)
	p2 := d.Attach(j2)
	killed := map[int]KillReason{}
	p1.OnKill = killFunc(func(r KillReason) { killed[1] = r })
	p2.OnKill = killFunc(func(r KillReason) { killed[2] = r })
	outcomes := map[int]OffloadOutcome{}
	startOffload(d, p1, 60, 1000, func(o OffloadOutcome) { outcomes[1] = o })
	if d.Stats().OOMKills != 0 {
		t.Fatalf("premature OOM kill")
	}
	startOffload(d, p2, 60, 1000, func(o OffloadOutcome) { outcomes[2] = o })
	eng.Run()
	if d.Stats().OOMKills != 1 {
		t.Fatalf("OOM kills = %d, want 1", d.Stats().OOMKills)
	}
	if len(killed) != 1 {
		t.Fatalf("killed notifications: %v", killed)
	}
	for _, r := range killed {
		if r != KillOOM {
			t.Errorf("kill reason %v, want oom", r)
		}
	}
	// The survivor's offload must complete; the victim's aborts.
	aborted, completed := 0, 0
	for _, o := range outcomes {
		switch o {
		case OffloadAborted:
			aborted++
		case OffloadCompleted:
			completed++
		}
	}
	if aborted != 1 || completed != 1 {
		t.Errorf("outcomes: %v", outcomes)
	}
}

func TestHonestJobsNeverOOM(t *testing.T) {
	// Jobs whose peaks sum below device memory never trigger the killer.
	eng := sim.New()
	d := newDev(eng)
	for i := 0; i < 8; i++ {
		p := d.Attach(mkJob(i, 1000, 60))
		startOffload(d, p, 60, 1000, func(OffloadOutcome) {})
	}
	eng.Run()
	if d.Stats().OOMKills != 0 {
		t.Errorf("honest jobs OOM-killed: %+v", d.Stats())
	}
}

func TestDetachAbortsOffload(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	p := d.Attach(mkJob(1, 500, 60))
	var outcome OffloadOutcome = -1
	startOffload(d, p, 60, 5000, func(o OffloadOutcome) { outcome = o })
	eng.At(1000, func() { d.Detach(p) })
	eng.Run()
	if outcome != OffloadAborted {
		t.Errorf("outcome = %v, want aborted", outcome)
	}
	if p.Alive() {
		t.Error("process alive after detach")
	}
	if d.ProcessCount() != 0 {
		t.Error("process count nonzero after detach")
	}
}

func TestDetachIsIdempotent(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	p := d.Attach(mkJob(1, 500, 60))
	d.Detach(p)
	d.Detach(p)
	if d.ProcessCount() != 0 {
		t.Error("double detach corrupted process table")
	}
}

func TestDetachDoesNotInvokeOnKill(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	p := d.Attach(mkJob(1, 500, 60))
	p.OnKill = killFunc(func(KillReason) { t.Error("OnKill fired for voluntary detach") })
	d.Detach(p)
	eng.Run()
}

func TestKillContainerReason(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	p := d.Attach(mkJob(1, 500, 60))
	var got KillReason = -1
	p.OnKill = killFunc(func(r KillReason) { got = r })
	d.Kill(p, KillContainer)
	eng.Run()
	if got != KillContainer {
		t.Errorf("reason = %v, want container", got)
	}
}

func TestOffloadFromDeadProcessPanics(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	p := d.Attach(mkJob(1, 500, 60))
	d.Detach(p)
	defer func() {
		if recover() == nil {
			t.Error("offload from dead process did not panic")
		}
	}()
	startOffload(d, p, 60, 1000, func(OffloadOutcome) {})
}

func TestConcurrentOffloadsFromOneProcessPanic(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	p := d.Attach(mkJob(1, 500, 60))
	startOffload(d, p, 60, 1000, func(OffloadOutcome) {})
	defer func() {
		if recover() == nil {
			t.Error("second concurrent offload did not panic")
		}
	}()
	startOffload(d, p, 60, 1000, func(OffloadOutcome) {})
}

func TestRunningThreadsAndFreeHWThreads(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	d.Affinitized = true
	p1 := d.Attach(mkJob(1, 500, 120))
	p2 := d.Attach(mkJob(2, 500, 60))
	startOffload(d, p1, 120, 1000, func(OffloadOutcome) {})
	startOffload(d, p2, 60, 1000, func(OffloadOutcome) {})
	if d.RunningThreads() != 180 {
		t.Errorf("RunningThreads = %v, want 180", d.RunningThreads())
	}
	if d.FreeHWThreads() != 60 {
		t.Errorf("FreeHWThreads = %v, want 60", d.FreeHWThreads())
	}
	if len(d.offloads) != 2 {
		t.Errorf("running offloads = %d, want 2", len(d.offloads))
	}
	eng.Run()
	if d.RunningThreads() != 0 || d.FreeHWThreads() != 240 {
		t.Error("thread accounting wrong after completion")
	}
}

type sinkRec struct {
	at   units.Tick
	busy int
}

type testSink struct{ recs []sinkRec }

func (s *testSink) Record(now units.Tick, busy int) {
	s.recs = append(s.recs, sinkRec{now, busy})
}

func TestUtilSinkSamples(t *testing.T) {
	eng := sim.New()
	sink := &testSink{}
	d := NewDevice(eng, "x", bareConfig(), rng.New(1), sink)
	d.Affinitized = true
	p := d.Attach(mkJob(1, 500, 120)) // 30 cores
	startOffload(d, p, 120, 2000, func(OffloadOutcome) {})
	eng.Run()
	// Expect a 30-core sample at 0 and a 0-core sample at 2000.
	if len(sink.recs) < 2 {
		t.Fatalf("sink records: %v", sink.recs)
	}
	if sink.recs[0].busy != 30 || sink.recs[0].at != 0 {
		t.Errorf("first sample %v, want {0 30}", sink.recs[0])
	}
	last := sink.recs[len(sink.recs)-1]
	if last.busy != 0 || last.at != 2000 {
		t.Errorf("last sample %v, want {2000 0}", last)
	}
}

func TestBusyCoresCappedAtDeviceCores(t *testing.T) {
	eng := sim.New()
	sink := &testSink{}
	d := NewDevice(eng, "x", bareConfig(), rng.New(1), sink)
	d.Affinitized = true
	// 5 x 60 threads = 75 cores demanded, capped at 60.
	for i := 0; i < 5; i++ {
		p := d.Attach(mkJob(i, 200, 60))
		startOffload(d, p, 60, 1000, func(OffloadOutcome) {})
	}
	for _, r := range sink.recs {
		if r.busy > 60 {
			t.Errorf("busy cores %d exceeds device cores", r.busy)
		}
	}
	eng.Run()
}

func TestDeterministicOOMVictims(t *testing.T) {
	run := func() []int {
		eng := sim.New()
		d := NewDevice(eng, "x", bareConfig(), rng.New(99), nil)
		var order []int
		for i := 0; i < 4; i++ {
			j := mkJob(i, 4000, 60)
			p := d.Attach(j)
			id := i
			p.OnKill = killFunc(func(KillReason) { order = append(order, id) })
			// Attach itself can OOM-kill an earlier process — or the new
			// one — so only live processes offload (as a real host process
			// would: it is already dead before reaching its pragma).
			if p.Alive() {
				startOffload(d, p, 60, 1000, func(OffloadOutcome) {})
			}
		}
		eng.Run()
		return order
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("expected OOM kills with 4x4GB on an 8GB card")
	}
	if len(a) != len(b) {
		t.Fatalf("kill counts differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("OOM victim order not deterministic: %v vs %v", a, b)
		}
	}
}

func TestSpinContentionSlowsOversubscribedResidents(t *testing.T) {
	// Default model: two warm 240-thread processes => warm 480/240, over=1,
	// divisor 1 + 0.35. A serialized-style single offload of 2000 work
	// takes 2700 once both pools are warm.
	eng := sim.New()
	d := NewDevice(eng, "x", DefaultConfig(), rng.New(1), nil)
	d.Affinitized = true
	p1 := d.Attach(mkJob(1, 500, 240))
	p2 := d.Attach(mkJob(2, 500, 240))
	// Warm both pools with instantaneous-ish offloads first.
	startOffload(d, p1, 240, 1, func(OffloadOutcome) {})
	eng.Run()
	startOffload(d, p2, 240, 1, func(OffloadOutcome) {})
	eng.Run()
	start := eng.Now()
	var end units.Tick
	startOffload(d, p1, 240, 2000, func(OffloadOutcome) { end = eng.Now() })
	eng.Run()
	if got := end - start; got != 2700 {
		t.Errorf("contended offload took %v, want 2700 (1.35x)", got)
	}
}

func TestSpinContentionOnlyAfterFirstOffload(t *testing.T) {
	// A resident process that never offloaded has no worker pool yet and
	// causes no contention.
	eng := sim.New()
	d := NewDevice(eng, "x", DefaultConfig(), rng.New(1), nil)
	d.Affinitized = true
	d.Attach(mkJob(2, 500, 240)) // cold resident
	p1 := d.Attach(mkJob(1, 500, 240))
	var end units.Tick
	startOffload(d, p1, 240, 2000, func(OffloadOutcome) { end = eng.Now() })
	eng.Run()
	if end != 2000 {
		t.Errorf("offload with cold co-resident took %v, want 2000", end)
	}
}

func TestSpinContentionClearsOnTermination(t *testing.T) {
	eng := sim.New()
	d := NewDevice(eng, "x", DefaultConfig(), rng.New(1), nil)
	d.Affinitized = true
	p1 := d.Attach(mkJob(1, 500, 240))
	p2 := d.Attach(mkJob(2, 500, 240))
	startOffload(d, p2, 240, 1, func(OffloadOutcome) {})
	eng.Run()
	d.Detach(p2) // pool gone with the process
	var end units.Tick
	start := eng.Now()
	startOffload(d, p1, 240, 2000, func(OffloadOutcome) { end = eng.Now() })
	eng.Run()
	if end-start != 2000 {
		t.Errorf("offload after co-resident detach took %v, want 2000", end-start)
	}
}

func TestSpinContentionWithinBudgetIsFree(t *testing.T) {
	// Warm residents totaling exactly the hardware threads pay nothing.
	eng := sim.New()
	d := NewDevice(eng, "x", DefaultConfig(), rng.New(1), nil)
	d.Affinitized = true
	var ends []units.Tick
	for i := 0; i < 4; i++ {
		p := d.Attach(mkJob(i, 500, 60))
		startOffload(d, p, 60, 2000, func(OffloadOutcome) { ends = append(ends, eng.Now()) })
	}
	eng.Run()
	for _, e := range ends {
		if e != 2000 {
			t.Errorf("within-budget offload ended at %v, want 2000", e)
		}
	}
}

func TestNegativeSpinContentionRejected(t *testing.T) {
	cfg := bareConfig()
	cfg.SpinContention = -1
	defer func() {
		if recover() == nil {
			t.Error("negative SpinContention accepted")
		}
	}()
	NewDevice(sim.New(), "x", cfg, nil, nil)
}

func TestSnapshot(t *testing.T) {
	eng := sim.New()
	d := newDev(eng)
	d.Affinitized = true
	p1 := d.Attach(mkJob(1, 1000, 120))
	d.Attach(mkJob(2, 500, 60)) // resident, cold
	startOffload(d, p1, 120, 5000, func(OffloadOutcome) {})
	s := d.Snapshot()
	if s.ResidentJobs != 2 || s.RunningOffloads != 1 {
		t.Errorf("snapshot %+v", s)
	}
	if s.RunningThreads != 120 || s.BusyCores != 30 {
		t.Errorf("snapshot occupancy %+v", s)
	}
	if s.WarmThreads != 120 {
		t.Errorf("warm threads %v, want 120 (only the offloading job)", s.WarmThreads)
	}
	if s.TotalMemory != 8192 {
		t.Errorf("total memory %v", s.TotalMemory)
	}
	str := s.String()
	for _, want := range []string{"node0/mic0", "jobs=2", "offloads=1"} {
		if !strings.Contains(str, want) {
			t.Errorf("snapshot string %q missing %q", str, want)
		}
	}
	eng.Run()
	if after := d.Snapshot(); after.RunningOffloads != 0 || after.BusyCores != 0 {
		t.Errorf("post-run snapshot %+v", after)
	}
}
