package faults

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// mkJob builds an honest job: one host second, then one long offload.
func mkJob(id int, mem units.MB, threads units.Threads, offload units.Tick) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Workload: "test",
		Mem: mem, Threads: threads, ActualPeakMem: units.MB(float64(mem) * 0.9),
		Phases: []job.Phase{
			{Kind: job.HostPhase, Duration: 1 * units.Second},
			{Kind: job.OffloadPhase, Duration: offload, Threads: threads},
		},
	}
}

type rig struct {
	eng  *sim.Engine
	clu  *cluster.Cluster
	pool *condor.Pool
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

// observe attaches to the pool an observer that retains nothing and feeds
// the returned record; pass the observer on as Harness.Obs.
func observe(p *condor.Pool) (*obs.Observer, *jobEvents) {
	o := obs.New()
	o.Trace.SetStreaming(true)
	l := &jobEvents{}
	o.Trace.AddConsumer(l)
	p.SetObserver(o)
	return o, l
}

func newRig(nodes, retries int) *rig {
	eng := sim.New()
	eng.MaxSteps = 10_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: nodes, UseCosmic: true, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(5)),
		condor.Config{MaxRetries: retries})
	return &rig{eng: eng, clu: clu, pool: pool}
}

// TestScriptedDeviceFailureLifecycle injects an exactly-timed device failure
// under a running job and asserts the complete crash/resubmit event
// sequence: Submit → Match → Execute → Crash → Resubmit (repeated while the
// device is down) → Match → Execute → Terminate, with the invariant checker
// clean throughout.
func TestScriptedDeviceFailureLifecycle(t *testing.T) {
	r := newRig(1, 5)
	o, log := observe(r.pool)
	h := &Harness{
		Profile: Profile{
			Name: "scripted",
			Script: []DeviceFault{
				{Slot: "slot1@node0", At: 5 * units.Second, Repair: 10 * units.Second},
			},
		},
		Seed:  1,
		Check: true,
		Obs:   o,
	}
	h.Wire(r.eng, r.clu, r.pool)
	r.pool.Submit([]*job.Job{mkJob(0, 500, 60, 20*units.Second)})
	r.eng.Run()

	if !r.pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
	if v := h.Finish(); len(v) != 0 {
		t.Fatalf("invariant violations under scripted failure:\n%v", v)
	}
	q := r.pool.Jobs()[0]
	if q.State != condor.Completed {
		t.Fatalf("job state %v, want completed after device repair", q.State)
	}
	if q.Crashes == 0 {
		t.Fatal("job never crashed: the scripted failure missed it")
	}
	if s := h.InjectorStats(); s.DeviceFailures != 1 || s.Repairs != 1 || s.Evictions != 1 {
		t.Errorf("injector stats %+v, want 1 failure, 1 repair, 1 eviction", s)
	}

	// The full lifecycle: the first run is cut down by the failure, every
	// retry while the device is down dies on arrival, the run after the
	// repair completes.
	var kinds []string
	for _, e := range log.of(0) {
		kinds = append(kinds, e.Kind)
	}
	want := []string{"submit"}
	for i := 0; i < q.Crashes; i++ {
		want = append(want, "match", "execute", "crash", "resubmit")
	}
	want = append(want, "match", "execute", "terminate")
	if len(kinds) != len(want) {
		t.Fatalf("event sequence %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (full: %v)", i, kinds[i], want[i], kinds)
		}
	}
	// The first crash lands exactly at the scripted failure time.
	for _, e := range log.of(0) {
		if e.Kind == "crash" {
			if e.At != 5*units.Second {
				t.Errorf("first crash at %v, want %v", e.At, 5*units.Second)
			}
			break
		}
	}
}

// TestMTBFInjectionRunsClean drives a stochastic device-failure process
// over a small workload and asserts faults actually fired, repairs landed,
// and every invariant held to the end.
func TestMTBFInjectionRunsClean(t *testing.T) {
	r := newRig(2, 8)
	h := &Harness{
		Profile: Profile{
			Name:         "aggressive",
			DeviceMTBF:   8 * units.Second,
			DeviceRepair: 3 * units.Second,
		},
		Seed:  7,
		Check: true,
	}
	h.Wire(r.eng, r.clu, r.pool)
	var jobs []*job.Job
	for i := 0; i < 6; i++ {
		jobs = append(jobs, mkJob(i, 500, 60, 10*units.Second))
	}
	r.pool.Submit(jobs)
	r.eng.Run()

	if !r.pool.Done() {
		t.Fatal("pool not done after engine drained")
	}
	if v := h.Finish(); len(v) != 0 {
		t.Fatalf("invariant violations under MTBF injection:\n%v", v)
	}
	s := h.InjectorStats()
	if s.DeviceFailures == 0 {
		t.Error("no device failures injected despite an 8s MTBF")
	}
	if s.Repairs != s.DeviceFailures {
		t.Errorf("repairs %d != failures %d (a repair chain was dropped)",
			s.Repairs, s.DeviceFailures)
	}
}

// relay re-emits a pool's events into another observer, passing each on
// copies(e) times: a doctored lifecycle record for the checker.
type relay struct {
	to     *obs.Observer
	copies func(obs.Event) int
}

func (r relay) Consume(e obs.Event) {
	for i := r.copies(e); i > 0; i-- {
		r.to.Emit(e.At, e.Layer, e.Kind, e.Fields...)
	}
}

// copiesOf passes n copies of every event of kind, one of every other.
func copiesOf(kind string, n int) func(obs.Event) int {
	return func(e obs.Event) int {
		if e.Kind == kind {
			return n
		}
		return 1
	}
}

// TestCheckerCatchesCorruption corrupts machine and queue bookkeeping
// mid-run, or the lifecycle record the checker consumes, and asserts the
// checker flags it with the violation meant — proof the swarm's green runs
// mean something.
func TestCheckerCatchesCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		jobs    int // submitted at t=0, IDs firstID, firstID+1, …
		firstID int
		corrupt func(p *condor.Pool)
		// copies, if set, doctors the pool's events on their way to the
		// checker (see relay); corrupt is then nil.
		copies func(obs.Event) int
		want   string
	}{
		{"negative free memory", 1, 0, func(p *condor.Pool) {
			p.Machines()[0].FreeMem = -5
		}, nil, "FreeMem -5MB != memory"},
		{"negative resident threads", 1, 0, func(p *condor.Pool) {
			p.Machines()[0].ResidentThreads = -1
		}, nil, "ResidentThreads negative"},
		{"phantom resident job", 1, 0, func(p *condor.Pool) {
			m := p.Machines()[0]
			m.Resident = append(m.Resident, &condor.QueuedJob{Job: mkJob(99, 100, 10, units.Second)})
		}, nil, "resident job 99 in state idle"},
		// Writers that bypass the pool's funnels leave the free-slot index
		// stale: the machine fills up, or goes offline, behind its back.
		{"resident bypass fills the machine", 1, 0, func(p *condor.Pool) {
			m := p.Machines()[0]
			for len(m.Resident) < m.HostSlots {
				m.Resident = append(m.Resident, &condor.QueuedJob{Job: mkJob(99, 100, 10, units.Second)})
			}
		}, nil, "free-slot index says free=true"},
		{"offline bypass", 1, 0, func(p *condor.Pool) {
			p.Machines()[0].Offline = true
		}, nil, "free-slot index says free=true"},
		// Six jobs on one four-slot machine leave two pending.
		{"job queued twice", 6, 0, func(p *condor.Pool) {
			q := p.Pending()
			q[1] = q[0]
		}, nil, "queued twice"},
		{"job with a sparse ID queued twice", 6, 1000, func(p *condor.Pool) {
			q := p.Pending()
			q[1] = q[0]
		}, nil, "queued twice"},
		{"dropped terminate", 1, 0, nil, copiesOf("terminate", 0),
			"job 0: 1 executions but 0 crashes + 0 terminations"},
		{"duplicated submit", 1, 0, nil, copiesOf("submit", 2),
			"job 0: 2 submit events, want 1"},
		{"match with no execute", 1, 0, nil, copiesOf("execute", 0),
			"job 0: 1 matches but 0 executions"},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(1, 0)
			h := &Harness{Check: true}
			if tc.copies != nil {
				h.Obs = obs.New()
				h.Obs.Trace.SetStreaming(true)
				poolObs, _ := observe(r.pool)
				poolObs.Trace.AddConsumer(relay{h.Obs, tc.copies})
			}
			h.Wire(r.eng, r.clu, r.pool)
			if tc.corrupt != nil {
				r.eng.After(2500, func() { tc.corrupt(r.pool) })
			}
			jobs := make([]*job.Job, tc.jobs)
			for i := range jobs {
				jobs[i] = mkJob(tc.firstID+i, 500, 60, 5*units.Second)
			}
			r.pool.Submit(jobs)
			r.eng.Run()
			v := h.Finish()
			if !strings.Contains(strings.Join(v, "\n"), tc.want) {
				t.Errorf("checker missed the corruption: no violation mentions %q in %q", tc.want, v)
			}
		})
	}
}

// indexBlind hides a policy's condor.IndexSelector, so the negotiator must
// build every candidate list and call Select.
type indexBlind struct{ condor.Policy }

// TestIndexSelectMatchesCandidateSelect runs MCC and Agnostic cells under the
// heavy fault profile twice — the policy as is, and wrapped so its SelectN is
// hidden — and requires identical records, pool and injector counters, and
// the same next draw from the policy's RNG: choosing by rank in the free-slot
// index is the walk's choice, draw for draw. Agnostic's machine Requirements
// read ResidentJobs, so its clusters never fold to const-true and both of its
// runs walk the index; its leg pins that SelectN is only a shortcut.
func TestIndexSelectMatchesCandidateSelect(t *testing.T) {
	type outcome struct {
		stats   condor.Stats
		inj     Stats
		records []metrics.JobRecord
		next    int
	}
	policies := []struct {
		name   string
		mk     func(*rng.Source) condor.Policy
		cosmic bool
	}{
		{"MCC", func(r *rng.Source) condor.Policy { return scheduler.NewRandomPack(r) }, true},
		{"Agnostic", func(r *rng.Source) condor.Policy { return scheduler.NewAgnostic(r) }, false},
	}
	for _, pc := range policies {
		run := func(hide bool) outcome {
			eng := sim.New()
			eng.MaxSteps = 50_000_000
			clu := cluster.New(eng, cluster.Config{Nodes: 6, UseCosmic: pc.cosmic, Seed: 3})
			src := rng.New(9)
			policy := pc.mk(src)
			if _, ok := policy.(condor.IndexSelector); !ok {
				t.Fatalf("%s does not implement condor.IndexSelector", pc.name)
			}
			if hide {
				policy = indexBlind{policy}
			}
			pool := condor.NewPool(eng, clu, policy, condor.Config{MaxRetries: 3})
			h := &Harness{Profile: HeavyProfile(), Seed: 4, Check: true}
			h.Wire(eng, clu, pool)
			pool.Submit(job.GenerateTableOneSet(200, rng.New(5).Fork("tableI")))
			eng.Run()
			if v := h.Finish(); len(v) != 0 {
				t.Fatalf("%s hide=%v: invariant violations: %v", pc.name, hide, v)
			}
			return outcome{pool.Stats(), h.InjectorStats(), pool.Records(), src.Intn(1 << 30)}
		}
		want, got := run(true), run(false)
		if want.inj.DeviceFailures == 0 || want.inj.NodeLosses == 0 || want.stats.Resubmits == 0 {
			t.Fatalf("%s: the fault profile did not bite (%+v, %d resubmits)",
				pc.name, want.inj, want.stats.Resubmits)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: index selection diverges from candidate selection:\n"+
				"got  %+v %+v next=%d\nwant %+v %+v next=%d",
				pc.name, got.stats, got.inj, got.next, want.stats, want.inj, want.next)
		}
	}
}

// TestProfilePresets pins the built-in profiles' enablement and lookup.
func TestProfilePresets(t *testing.T) {
	if (Profile{}).Enabled() {
		t.Error("zero profile reports enabled")
	}
	for _, name := range []string{"light", "heavy"} {
		p, ok := ProfileByName(name)
		if !ok || !p.Enabled() || p.Name != name {
			t.Errorf("ProfileByName(%q) = %+v, %v", name, p, ok)
		}
	}
	if p, ok := ProfileByName("none"); !ok || p.Enabled() {
		t.Errorf("ProfileByName(none) = %+v, %v, want disabled profile", p, ok)
	}
	if _, ok := ProfileByName("bogus"); ok {
		t.Error("ProfileByName accepted an unknown name")
	}
	if len(Profiles()) < 2 {
		t.Errorf("Profiles() = %d entries, want at least light and heavy", len(Profiles()))
	}
}

// TestZeroHarnessWiresNothing: a harness with no profile and no checker
// must leave the stack untouched.
func TestZeroHarnessWiresNothing(t *testing.T) {
	r := newRig(1, 0)
	h := &Harness{}
	h.Wire(r.eng, r.clu, r.pool)
	if r.eng.AfterStep != nil {
		t.Error("zero harness installed an AfterStep hook")
	}
	if r.pool.NegFaults != nil {
		t.Error("zero harness installed a negotiation fault hook")
	}
	if h.Finish() != nil || h.chk != nil {
		t.Error("zero harness reported violations")
	}
	if h.InjectorStats() != (Stats{}) {
		t.Error("zero harness counted injections")
	}
}

// TestUsageViolationOrderIsDeterministic is the regression test for the
// philint:mapiter true positive in Checker.checkUsage. Violations land in
// the capped c.violations slice, so the iteration order over the user set
// is observable: with the old `for u := range users` map loop, which
// user's fair-share mismatch was recorded first (and which fell past the
// cap) flipped run to run. The fix iterates the users in sorted order.
// Each repetition rebuilds the checker; twelve repetitions would catch
// the old map-order behaviour with probability 1 - 2^-12.
func TestUsageViolationOrderIsDeterministic(t *testing.T) {
	// A completed two-user run...
	r := newRig(2, 0)
	_, log := observe(r.pool)
	r.pool.SubmitAs("walt", []*job.Job{mkJob(0, 500, 60, 2*units.Second)}, 0)
	r.pool.SubmitAs("ada", []*job.Job{mkJob(1, 500, 60, 2*units.Second)}, 0)
	r.eng.Run()
	for _, u := range []string{"walt", "ada"} {
		if r.pool.Usage(u) == 0 {
			t.Fatalf("user %q accrued no usage; rig did not run", u)
		}
	}

	// ...replayed into the checker as doctored events that stretch every
	// execution interval, so the reconstructed usage disagrees with the
	// pool's accumulator for BOTH users at once.
	for i := 0; i < 12; i++ {
		c := NewChecker(r.eng, r.clu, r.pool)
		for _, e := range *log {
			if e.Kind == "terminate" || e.Kind == "crash" {
				e.At += units.Second
			}
			c.Consume(e)
		}
		c.checkUsage()
		v := c.violations
		if len(v) != 2 {
			t.Fatalf("iteration %d: %d violations, want 2: %q", i, len(v), v)
		}
		if !strings.Contains(v[0], `user "ada"`) || !strings.Contains(v[1], `user "walt"`) {
			t.Fatalf("iteration %d: violations out of sorted user order: %q", i, v)
		}
	}
}
