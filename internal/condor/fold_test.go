package condor_test

import (
	"fmt"
	"reflect"
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// foldPolicy is a test policy whose job and machine Requirements are chosen
// per test, to drive the negotiator's constant-Requirements fold. jobReq
// returns a job's Requirements; pin, when set, returns a Pin attribute the
// Requirements may read through MY. Select picks a candidate by job id, so
// a candidate list in the wrong order or of the wrong length shows up in the
// records.
type foldPolicy struct {
	machineReq string
	jobReq     func(id int) string
	pin        func(id int) string
}

func (*foldPolicy) Name() string                  { return "fold" }
func (f *foldPolicy) MachineRequirements() string { return f.machineReq }
func (*foldPolicy) PreNegotiation(*condor.Pool)   {}
func (*foldPolicy) PostNegotiation(*condor.Pool)  {}
func (f *foldPolicy) PrepareJobAd(q *condor.QueuedJob) {
	q.Ad.MustSetExpr("Requirements", f.jobReq(q.Job.ID))
	if f.pin != nil {
		q.Ad.MustSetExpr("Pin", f.pin(q.Job.ID))
	}
}
func (*foldPolicy) Select(_ *condor.Pool, q *condor.QueuedJob, c []*condor.Machine) int {
	return q.Job.ID % len(c)
}

// TestUnpinnedMCCKQueueLooksUpOnlyPinnedClusters: under MCCK every job the
// plan leaves unpinned holds Requirements = false, which folds, so a cycle
// consults the match cache only for the jobs the plan pinned. The queue
// mixes ten oversized unpinnable requests (ten autoclusters a full walk would
// look up on every free machine) with small jobs the knapsack pins.
func TestUnpinnedMCCKQueueLooksUpOnlyPinnedClusters(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 4, Seed: 1})
	pool := condor.NewPool(eng, clu, core.New(core.Config{}), condor.Config{})
	o := obs.New()
	pool.SetObserver(o)
	var jobs []*job.Job
	for i := 0; i < 40; i++ {
		jobs = append(jobs, mkJob(i, units.MB(9000+100*(i%10)), 60, 1))
	}
	for i := 40; i < 46; i++ {
		jobs = append(jobs, mkJob(i, 500, 60, 1))
	}
	pool.Submit(jobs)
	pool.NegotiateOnce()

	pinned := 0
	for _, q := range pool.Jobs() {
		req, ok := q.InstalledRequirements()
		if !ok {
			t.Fatalf("job %d: Requirements rewritten behind the pool's back", q.Job.ID)
		}
		if req != "false" {
			pinned++
		}
	}
	if pinned == 0 || pool.InFlight() == 0 {
		t.Fatalf("the plan pinned %d jobs and %d matched, want some of each", pinned, pool.InFlight())
	}
	// Each pinned job walks at most every machine; the ten unpinned
	// clusters would add up to 40 lookups more.
	lookups := cacheLookups(o)
	if bound := int64(pinned * len(pool.Machines())); lookups > bound {
		t.Fatalf("cycle made %d match-cache lookups, want <= pinned jobs × machines = %d: "+
			"unpinned clusters were looked up", lookups, bound)
	}

	// A cycle with nothing left to pin looks nothing up, however many
	// unpinned clusters are pending.
	before := cacheLookups(o)
	pool.NegotiateOnce()
	if got := cacheLookups(o) - before; got != 0 || len(pool.Pending()) != 40 {
		t.Fatalf("cycle over an unpinned queue of %d made %d lookups, want 0",
			len(pool.Pending()), got)
	}
}

// TestMCCCycleMakesNoMatchEvaluations: MCC's Requirements are "true" on
// both sides, so every autocluster folds to FoldTrue and a cycle dispatches
// without a single Match evaluation or cache lookup. RandomPack is an
// IndexSelector, so the cycle does not visit a single machine either: each
// job is placed by rank in the free-slot index.
func TestMCCCycleMakesNoMatchEvaluations(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 4, Seed: 1})
	pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(3)), condor.Config{})
	o := obs.New()
	pool.SetObserver(o)
	pool.Submit(job.GenerateTableOneSet(40, rng.New(7).Fork("tableI")))
	pool.NegotiateOnce()
	if pool.InFlight() != 16 {
		t.Fatalf("%d jobs matched, want every one of the 16 host slots filled", pool.InFlight())
	}
	if got := cacheLookups(o); got != 0 {
		t.Errorf("MCC cycle made %d match-cache lookups, want 0", got)
	}
	if got := pool.MachineVisits(); got != 0 {
		t.Errorf("MCC cycle visited %d machines, want 0", got)
	}
}

// TestEraResetDropsStaleFolds: an era reset in the middle of a cycle must not
// leave the old era's classifications behind. The new era's first cluster
// takes verdict index 0, which a const-false cluster of the old era held,
// so a stale classification would reject a job every machine accepts. Fill
// the signature table with const-false clusters (MY.JobId < 0 renders each
// job's id into its signature), then queue a "true" job behind them.
func TestEraResetDropsStaleFolds(t *testing.T) {
	eng := sim.New()
	clu := cluster.New(eng, cluster.Config{Nodes: 2, Seed: 1})
	const tableCap = 4096
	policy := &foldPolicy{machineReq: "true", jobReq: func(id int) string {
		if id < tableCap {
			return "MY.JobId < 0"
		}
		return "true"
	}}
	pool := condor.NewPool(eng, clu, policy, condor.Config{})
	ghosts := make([]*job.Job, tableCap)
	for i := range ghosts {
		ghosts[i] = mkJob(i, 500, 60, 1)
	}
	pool.Submit(ghosts)
	pool.NegotiateOnce()
	if n := pool.AutoclusterCount(); n != tableCap {
		t.Fatalf("signature table holds %d entries, want it full at %d", n, tableCap)
	}
	pool.Submit([]*job.Job{mkJob(tableCap, 500, 60, 1)})
	pool.NegotiateOnce()
	if n := pool.AutoclusterCount(); n != 1 {
		t.Fatalf("signature table holds %d entries after the overflowing cycle, "+
			"want 1 (the era reset did not happen mid-cycle)", n)
	}
	if q := pool.Jobs()[tableCap]; q.State != condor.Dispatched {
		t.Fatalf("the \"true\" job is %v after the cycle, want dispatched: "+
			"a stale fold survived the era reset", q.State)
	}
}

// TestFoldedNegotiationMatchesOracle runs full simulations of fold-heavy
// policies, with and without claim reuse, and requires every job record and activity counter
// to equal the DisableMatchCache oracle's, which evaluates every pair. The
// policies cover a job Requirements that reaches TARGET only through
// MY.Pin, one that is a constant undefined or error, and a machine side
// that is constant false.
func TestFoldedNegotiationMatchesOracle(t *testing.T) {
	eng := sim.New()
	slots := cluster.New(eng, cluster.Config{Nodes: 4, Seed: 1}).Units
	policies := map[string]func() condor.Policy{
		"pin-through-my": func() condor.Policy {
			return &foldPolicy{
				machineReq: "TARGET.RequestPhiMemory <= MY.PhiFreeMemory",
				jobReq:     func(int) string { return "MY.Pin" },
				pin: func(id int) string {
					switch id % 4 {
					case 0:
						return "true"
					case 1:
						return "false"
					}
					return fmt.Sprintf("TARGET.Name == %q", slots[id%len(slots)].SlotName)
				},
			}
		},
		"const-undefined-error": func() condor.Policy {
			return &foldPolicy{
				machineReq: "true",
				jobReq: func(id int) string {
					return [...]string{"undefined", "error", "1 / 0 == 1", "true", "MY.JobId >= 0"}[id%5]
				},
			}
		},
		"machine-false": func() condor.Policy {
			return &foldPolicy{
				machineReq: "1 > 2",
				jobReq:     func(int) string { return "true" },
			}
		},
	}
	type outcome struct {
		stats   condor.Stats
		records []metrics.JobRecord
	}
	run := func(mk func() condor.Policy, cfg condor.Config) outcome {
		eng := sim.New()
		eng.MaxSteps = 10_000_000
		clu := cluster.New(eng, cluster.Config{Nodes: 4, UseCosmic: true, Seed: 1})
		cfg.MaxRetries = 2
		pool := condor.NewPool(eng, clu, mk(), cfg)
		pool.Submit(job.GenerateTableOneSet(60, rng.New(5).Fork("tableI")))
		eng.Run()
		if !pool.Done() {
			t.Fatal("pool not done after engine drained")
		}
		st := pool.Stats()
		st.CycleSkips = 0 // the oracle never short-circuits a cycle
		return outcome{st, pool.Records()}
	}
	for name, mk := range policies {
		for _, reuse := range []bool{false, true} {
			want := run(mk, condor.Config{DisableMatchCache: true, ClaimReuse: reuse})
			if want.stats.Matches == 0 && name != "machine-false" {
				t.Fatalf("%s: oracle matched nothing; the policy does not exercise the scan", name)
			}
			got := run(mk, condor.Config{ClaimReuse: reuse})
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s reuse=%v: outcome diverges from the DisableMatchCache oracle:\n"+
					"got  %+v\nwant %+v", name, reuse, got.stats, want.stats)
			}
		}
	}
}
