// Cross-module integration tests: whole-stack invariants that must hold for
// every policy, workload and seed — the properties the paper's system
// guarantees by construction (no resource oversubscription, §IV-B) plus
// scheduling-theory sanity bounds on makespan.
package phishare

import (
	"testing"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/experiments"
	"phishare/internal/job"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// invariantProbe samples device state throughout a run and records any
// violation of the safety properties.
type invariantProbe struct {
	clu        *cluster.Cluster
	violations []string
}

func (p *invariantProbe) check() {
	for _, u := range p.clu.Units {
		hw := u.Device.Config().HWThreads()
		if u.Device.RunningThreads() > hw {
			p.violations = append(p.violations, "thread oversubscription on "+u.SlotName)
		}
		if u.Cosmic != nil {
			if u.Device.CommittedMemory() > u.Device.Config().Memory {
				p.violations = append(p.violations, "memory oversubscription on "+u.SlotName)
			}
			if free := u.Cosmic.DeclaredFree(); free < 0 {
				p.violations = append(p.violations, "declared reservation overrun on "+u.SlotName)
			}
		}
	}
}

// arm schedules periodic probes for the duration of the run.
func (p *invariantProbe) arm(eng *sim.Engine, until units.Tick, period units.Tick) {
	for t := units.Tick(0); t <= until; t += period {
		eng.At(t, p.check)
	}
}

func buildPolicy(name string, seed int64) (condor.Policy, bool) {
	switch name {
	case "MC":
		return scheduler.NewExclusive(), false
	case "MCC":
		return scheduler.NewRandomPack(rng.New(seed)), true
	case "MCCK":
		return core.New(core.Config{}), true
	}
	panic("unknown policy " + name)
}

// TestSafetyInvariantsAcrossSeeds fuzzes the full stack: across seeds,
// policies and workloads, COSMIC-guarded devices never oversubscribe
// hardware threads or physical memory, and every honest job completes.
func TestSafetyInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		for _, policy := range []string{"MC", "MCC", "MCCK"} {
			for _, wl := range []string{"tableI", "high-skew"} {
				var jobs []*job.Job
				if wl == "tableI" {
					jobs = job.GenerateTableOneSet(60, rng.New(seed))
				} else {
					jobs = workload.Generate(workload.Config{Dist: workload.HighSkew, N: 60, Seed: seed})
				}
				eng := sim.New()
				eng.MaxSteps = 50_000_000
				pol, cosmic := buildPolicy(policy, seed)
				clu := cluster.New(eng, cluster.Config{Nodes: 3, UseCosmic: cosmic, Seed: seed})
				pool := condor.NewPool(eng, clu, pol, condor.Config{})
				probe := &invariantProbe{clu: clu}
				probe.arm(eng, 2*units.Hour, 500*units.Millisecond)
				pool.Submit(jobs)
				eng.Run()

				if len(probe.violations) > 0 {
					t.Fatalf("seed=%d %s/%s: %d violations, first: %s",
						seed, policy, wl, len(probe.violations), probe.violations[0])
				}
				for _, q := range pool.Jobs() {
					if q.State != condor.Completed {
						t.Fatalf("seed=%d %s/%s: job %d ended %v",
							seed, policy, wl, q.Job.ID, q.State)
					}
				}
				for _, u := range clu.Units {
					if u.Device.ProcessCount() != 0 || u.Device.RunningThreads() != 0 {
						t.Fatalf("seed=%d %s/%s: device %s not clean after run",
							seed, policy, wl, u.SlotName)
					}
				}
			}
		}
	}
}

// TestMakespanBounds checks scheduling-theory sanity: the measured makespan
// can never beat the critical path (longest job) nor the total-work bound,
// and the exclusive policy can never beat perfect per-device sequential
// packing.
func TestMakespanBounds(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		jobs := job.GenerateTableOneSet(50, rng.New(seed*100))
		nodes := 3
		var longest, total units.Tick
		for _, j := range jobs {
			if s := j.SequentialTime(); s > longest {
				longest = s
			}
			total += j.SequentialTime()
		}
		for _, policy := range []string{"MC", "MCC", "MCCK"} {
			res := experiments.Run(experiments.RunConfig{
				Policy: policy, Nodes: nodes, Jobs: jobs, Seed: seed,
			})
			if res.Makespan < longest {
				t.Errorf("seed=%d %s: makespan %v below critical path %v",
					seed, policy, res.Makespan, longest)
			}
			if policy == "MC" && res.Makespan < total/units.Tick(nodes) {
				t.Errorf("seed=%d MC: makespan %v below the sequential packing bound %v",
					seed, res.Makespan, total/units.Tick(nodes))
			}
		}
	}
}

// TestOrderingHoldsAcrossSeeds verifies the paper's headline ordering —
// MCCK ≤ MCC < MC — is not a single-seed artifact on the real mix.
func TestOrderingHoldsAcrossSeeds(t *testing.T) {
	mcckWins := 0
	const trials = 5
	for seed := int64(10); seed < 10+trials; seed++ {
		jobs := job.GenerateTableOneSet(200, rng.New(seed))
		get := func(policy string) units.Tick {
			return experiments.Run(experiments.RunConfig{
				Policy: policy, Nodes: 4, Jobs: jobs, Seed: seed,
			}).Makespan
		}
		mc, mcc, mcck := get("MC"), get("MCC"), get("MCCK")
		if mcc >= mc {
			t.Errorf("seed=%d: MCC %v not better than MC %v", seed, mcc, mc)
		}
		if mcck >= mc {
			t.Errorf("seed=%d: MCCK %v not better than MC %v", seed, mcck, mc)
		}
		if mcck < mcc {
			mcckWins++
		}
	}
	if mcckWins < trials-1 {
		t.Errorf("MCCK beat MCC in only %d/%d trials", mcckWins, trials)
	}
}

// TestMultiDeviceNodes exercises the paper's general formulation ("N
// identical compute servers each having D Xeon Phi coprocessors"): with
// D=2, both devices on a node are advertised as separate slots, the
// knapsack packs them independently, and everything completes safely.
func TestMultiDeviceNodes(t *testing.T) {
	jobs := job.GenerateTableOneSet(80, rng.New(77))
	eng := sim.New()
	eng.MaxSteps = 50_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: 2, DevicesPerNode: 2, UseCosmic: true, Seed: 77})
	pool := condor.NewPool(eng, clu, core.New(core.Config{}), condor.Config{})
	probe := &invariantProbe{clu: clu}
	probe.arm(eng, 2*units.Hour, units.Second)
	pool.Submit(jobs)
	eng.Run()

	if len(probe.violations) > 0 {
		t.Fatalf("violations: %v", probe.violations[0])
	}
	if len(clu.Units) != 4 {
		t.Fatalf("device count %d", len(clu.Units))
	}
	used := map[string]bool{}
	for _, q := range pool.Jobs() {
		if q.State != condor.Completed {
			t.Fatalf("job %d state %v", q.Job.ID, q.State)
		}
		used[q.Machine.Name] = true
	}
	if len(used) != 4 {
		t.Errorf("only %d of 4 devices used: %v", len(used), used)
	}

	// Same cluster capacity as 4x1 devices: makespans should be close
	// (same scheduler, same totals).
	res4x1 := experiments.Run(experiments.RunConfig{
		Policy: "MCCK", Nodes: 4, Jobs: jobs, Seed: 77,
	})
	ratio := float64(pool.Makespan()) / float64(res4x1.Makespan)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("2x2 vs 4x1 makespan ratio %.2f, want near 1", ratio)
	}
}

// TestSeedSensitivityOfTable2 verifies the headline reductions are stable
// across workload seeds, not tuned to seed 42.
func TestSeedSensitivityOfTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed Table II sweep")
	}
	for _, seed := range []int64{1, 2, 3} {
		r := experiments.Table2(experiments.Options{
			Seed: seed, Nodes: 8, RealJobs: 400, SyntheticJobs: 100,
		})
		mcc, mcck := r.Rows[1], r.Rows[2]
		if mcc.Reduction < 0.15 || mcc.Reduction > 0.45 {
			t.Errorf("seed=%d: MCC reduction %.2f far from the paper's 27%%", seed, mcc.Reduction)
		}
		if mcck.Reduction < 0.30 || mcck.Reduction > 0.50 {
			t.Errorf("seed=%d: MCCK reduction %.2f far from the paper's 39%%", seed, mcck.Reduction)
		}
		if mcck.Reduction <= mcc.Reduction {
			t.Errorf("seed=%d: MCCK (%.2f) did not beat MCC (%.2f)", seed, mcck.Reduction, mcc.Reduction)
		}
	}
}

// TestLargeClusterStress pushes well past the paper's scale: 32 nodes,
// 3000 mixed jobs under MCCK. Guards against quadratic blowups in the
// negotiator and planner and verifies cleanliness at scale.
func TestLargeClusterStress(t *testing.T) {
	if testing.Short() {
		t.Skip("large-cluster stress")
	}
	jobs := job.GenerateTableOneSet(3000, rng.New(999))
	res := experiments.Run(experiments.RunConfig{
		Policy: "MCCK", Nodes: 32, Jobs: jobs, Seed: 999,
	})
	if res.Summary.Completed != 3000 || res.Summary.Failed != 0 {
		t.Fatalf("summary %+v", res.Summary)
	}
	if res.Utilization < 0.5 {
		t.Errorf("utilization %.2f at scale, want > 0.5", res.Utilization)
	}
	// Rough sanity on the makespan: total sequential work / devices is a
	// floor; 3x that is a generous ceiling for a sharing scheduler.
	floor := job.TotalSequentialTime(jobs) / 32
	if res.Makespan > 3*floor {
		t.Errorf("makespan %v more than 3x the sequential floor %v", res.Makespan, floor)
	}
}
