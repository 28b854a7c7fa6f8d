package scheduler_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"phishare/internal/classad"
	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/job"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
)

func mkJob(id int, mem units.MB, threads units.Threads) *job.Job {
	return &job.Job{
		ID: id, Name: "j", Workload: "test",
		Mem: mem, Threads: threads, ActualPeakMem: units.MB(float64(mem) * 0.9),
		Phases: []job.Phase{
			{Kind: job.OffloadPhase, Duration: units.Second, Threads: threads},
		},
	}
}

func TestPolicyNames(t *testing.T) {
	if scheduler.NewExclusive().Name() != "MC" {
		t.Error("Exclusive name")
	}
	if scheduler.NewRandomPack(rng.New(1)).Name() != "MCC" {
		t.Error("RandomPack name")
	}
	if scheduler.NewAgnostic(rng.New(1)).Name() != "Agnostic" {
		t.Error("Agnostic name")
	}
}

func TestRequirementsExpressionsParse(t *testing.T) {
	policies := []condor.Policy{
		scheduler.NewExclusive(),
		scheduler.NewRandomPack(rng.New(1)),
		scheduler.NewAgnostic(rng.New(1)),
	}
	for _, p := range policies {
		if _, err := classad.Parse(p.MachineRequirements()); err != nil {
			t.Errorf("%s machine requirements do not parse: %v", p.Name(), err)
		}
	}
}

func TestExclusivePrepareJobAd(t *testing.T) {
	p := scheduler.NewExclusive()
	q := &condor.QueuedJob{Job: mkJob(0, 500, 60), Ad: classad.NewAd()}
	q.Ad.SetInt(condor.AttrRequestPhiDevices, 1)
	p.PrepareJobAd(q)
	machine := classad.NewAd()
	machine.SetInt(condor.AttrPhiFreeDevices, 1)
	if !classad.Match(q.Ad, machine) {
		t.Error("MC job does not match a free device")
	}
	machine.SetInt(condor.AttrPhiFreeDevices, 0)
	if classad.Match(q.Ad, machine) {
		t.Error("MC job matched a claimed device")
	}
}

func TestRandomPackSelectCoversAllCandidates(t *testing.T) {
	p := scheduler.NewRandomPack(rng.New(42))
	cands := make([]*condor.Machine, 4)
	for i := range cands {
		cands[i] = &condor.Machine{}
	}
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		idx := p.Select(nil, nil, cands)
		if idx < 0 || idx >= len(cands) {
			t.Fatalf("Select out of range: %d", idx)
		}
		seen[idx] = true
	}
	if len(seen) != 4 {
		t.Errorf("random selection covered %d/4 candidates", len(seen))
	}
}

func TestNewRandomPackNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil rng accepted")
		}
	}()
	scheduler.NewRandomPack(nil)
}

func TestNewAgnosticNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil rng accepted")
		}
	}()
	scheduler.NewAgnostic(nil)
}

func TestAgnosticMachineRequirementsCapsResidents(t *testing.T) {
	p := scheduler.NewAgnostic(rng.New(1))
	if !strings.Contains(p.MachineRequirements(), "16") {
		t.Errorf("default cap missing: %q", p.MachineRequirements())
	}
	p.MaxResident = 4
	if !strings.Contains(p.MachineRequirements(), "4") {
		t.Errorf("custom cap missing: %q", p.MachineRequirements())
	}
}

func TestExclusiveDeviceReleasedBetweenJobs(t *testing.T) {
	// Sequential execution on one device: job 2 starts only after job 1
	// finishes (plus renegotiation overhead).
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{})
	pool.Submit([]*job.Job{mkJob(0, 500, 60), mkJob(1, 500, 60)})
	eng.Run()
	recs := pool.Records()
	if len(recs) != 2 {
		t.Fatalf("records %d", len(recs))
	}
	first, second := recs[0], recs[1]
	if second.StartTime < first.EndTime {
		t.Errorf("second job started at %v before first ended at %v", second.StartTime, first.EndTime)
	}
}

func TestRandomPackDistributesLoad(t *testing.T) {
	// With 4 devices and many small jobs, random packing should touch
	// several machines.
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 4, UseCosmic: true, Seed: 3})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(3)), condor.Config{})
	var jobs []*job.Job
	for i := 0; i < 24; i++ {
		jobs = append(jobs, mkJob(i, 1000, 60))
	}
	pool.Submit(jobs)
	eng.Run()
	used := map[string]bool{}
	for _, r := range pool.Records() {
		used[r.Machine] = true
	}
	if len(used) < 3 {
		t.Errorf("random packing used only %d machines", len(used))
	}
}

// TestSelectIsPure checks every internal policy's Select for the purity the
// fast negotiator's bit-identity with its DisableMatchCache oracle rests on:
// the oracle calls Select where the fast path calls SelectN, so Select may
// change nothing but the policy's RNG stream, and that exactly as SelectN
// does. After each call the job's and every candidate's ad keep their
// version, the candidate slice is untouched, the choice equals a twin's
// SelectN, and the policy's state equals that twin's, so a counter or memo
// Select keeps on its receiver shows.
func TestSelectIsPure(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() condor.Policy
	}{
		{"MC", func() condor.Policy { return scheduler.NewExclusive() }},
		{"MCC", func() condor.Policy { return scheduler.NewRandomPack(rng.New(7)) }},
		{"Agnostic", func() condor.Policy { return scheduler.NewAgnostic(rng.New(7)) }},
		{"MCCK", func() condor.Policy { return core.New(core.Config{}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			policy, twin := tc.mk(), tc.mk().(condor.IndexSelector)
			eng := sim.New()
			clu := cluster.New(eng, cluster.Config{Nodes: 3, DevicesPerNode: 2, UseCosmic: true, Seed: 1})
			pool := condor.NewPool(eng, clu, policy, condor.Config{})
			pool.Submit([]*job.Job{mkJob(0, 500, 60), mkJob(1, 900, 120), mkJob(2, 2000, 240)})
			cands := pool.Machines()
			want := slices.Clone(cands)
			versions := make([]uint64, len(cands))
			for k := 0; k < 16; k++ {
				q := pool.Pending()[k%len(pool.Pending())]
				jobVersion := q.Ad.Version()
				for i, m := range cands {
					versions[i] = m.Ad.Version()
				}
				got := policy.Select(pool, q, cands)
				if n := twin.SelectN(len(cands)); got != n {
					t.Fatalf("call %d: Select chose %d, SelectN %d", k, got, n)
				}
				if q.Ad.Version() != jobVersion {
					t.Fatalf("call %d: Select changed the job ad", k)
				}
				for i, m := range cands {
					if m.Ad.Version() != versions[i] {
						t.Fatalf("call %d: Select changed candidate %s's ad", k, m.Name)
					}
				}
				if !slices.Equal(cands, want) {
					t.Fatalf("call %d: Select changed the candidate slice", k)
				}
				if !sameState(reflect.ValueOf(policy), reflect.ValueOf(twin)) {
					t.Fatalf("call %d: Select left state on the policy that SelectN does not:\n%+v\nvs\n%+v", k, policy, twin)
				}
			}
		})
	}
}

// sameState is reflect.DeepEqual, except that two func values are equal when
// they are the same function: DeepEqual calls every pair of non-nil funcs
// unequal, and core.Config carries its value function.
func sameState(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || a.IsValid() && a.Type() != b.Type() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	switch a.Kind() {
	case reflect.Func:
		return a.Pointer() == b.Pointer()
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameState(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameState(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameState(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if !sameState(it.Value(), b.MapIndex(it.Key())) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}
