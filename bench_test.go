// Package phishare's top-level benchmarks regenerate every table and figure
// of the paper's evaluation (one benchmark per artifact; see DESIGN.md's
// experiment index) plus micro-benchmarks of the hot components. Results
// beyond time/op are attached as custom metrics: makespans in seconds,
// reductions in percent, footprints in nodes.
//
// The macro-benchmarks run each experiment at a reduced-but-faithful scale
// by default so `go test -bench=.` completes in minutes; run cmd/phibench
// for the full paper-scale report.
package phishare

import (
	"fmt"
	"testing"

	"phishare/internal/classad"
	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/experiments"
	"phishare/internal/job"
	"phishare/internal/knapsack"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// benchOptions is the reduced scale used by the macro-benchmarks.
func benchOptions() experiments.Options {
	return experiments.Options{Seed: 42, Nodes: 8, RealJobs: 400, SyntheticJobs: 200}
}

// BenchmarkMotivationUtilization regenerates E1 (§III): exclusive-policy
// core utilization on the real mix and the synthetic distributions.
func BenchmarkMotivationUtilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Motivation(benchOptions())
		b.ReportMetric(r.Real*100, "real-util-%")
		b.ReportMetric(r.Synthetic[workload.LowSkew]*100, "lowskew-util-%")
		b.ReportMetric(r.Synthetic[workload.HighSkew]*100, "highskew-util-%")
	}
}

// BenchmarkTable2Makespan regenerates E2 (Table II): makespan and footprint
// for MC/MCC/MCCK on the Table I mix.
func BenchmarkTable2Makespan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(benchOptions())
		b.ReportMetric(r.Rows[0].Makespan.Seconds(), "MC-s")
		b.ReportMetric(r.Rows[1].Makespan.Seconds(), "MCC-s")
		b.ReportMetric(r.Rows[2].Makespan.Seconds(), "MCCK-s")
		b.ReportMetric(r.Rows[2].Reduction*100, "MCCK-red-%")
		b.ReportMetric(float64(r.Rows[2].Footprint), "MCCK-footprint")
	}
}

// BenchmarkFig7Distributions regenerates E3 (Fig. 7): the synthetic
// resource histograms.
func BenchmarkFig7Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(benchOptions())
		b.ReportMetric(r.Histograms[2].MeanLevel(), "lowskew-mean")
		b.ReportMetric(r.Histograms[3].MeanLevel(), "highskew-mean")
	}
}

// BenchmarkFig8Sensitivity regenerates E4 (Fig. 8): makespan across the
// four resource distributions.
func BenchmarkFig8Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOptions())
		for _, row := range r.Rows {
			b.ReportMetric(row.MCCK.Seconds(), row.Dist.String()+"-MCCK-s")
		}
	}
}

// BenchmarkFig9ClusterSize regenerates E5 (Fig. 9): makespan versus cluster
// size for each distribution.
func BenchmarkFig9ClusterSize(b *testing.B) {
	o := benchOptions()
	o.SyntheticJobs = 120
	for i := 0; i < b.N; i++ {
		r := experiments.Fig9(o)
		s := r.Series[1] // normal
		b.ReportMetric(s.MCCK[0].Seconds(), "normal-2node-MCCK-s")
		b.ReportMetric(s.MCCK[len(s.MCCK)-1].Seconds(), "normal-8node-MCCK-s")
	}
}

// BenchmarkTable3Footprint regenerates E6 (Table III): footprint per
// distribution.
func BenchmarkTable3Footprint(b *testing.B) {
	o := benchOptions()
	o.SyntheticJobs = 120
	for i := 0; i < b.N; i++ {
		r := experiments.Table3(o)
		for _, row := range r.Rows {
			b.ReportMetric(float64(row.MCCK), row.Dist.String()+"-MCCK-nodes")
		}
	}
}

// BenchmarkFig10JobPressure regenerates E7 (Fig. 10): constant job
// pressure, jobs scaling with cluster size.
func BenchmarkFig10JobPressure(b *testing.B) {
	o := benchOptions()
	o.SyntheticJobs = 120
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(o)
		last := r.Points[len(r.Points)-1]
		b.ReportMetric(last.MCCK.Seconds(), "8node-MCCK-s")
		b.ReportMetric((1-float64(last.MCCK)/float64(last.MC))*100, "K-vs-MC-%")
	}
}

// BenchmarkFig23Overlap regenerates E8 (Figs. 2–3): the two-job sharing
// timelines and their makespan savings.
func BenchmarkFig23Overlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig23(benchOptions())
		b.ReportMetric((1-float64(r.MaximalMakespan)/float64(r.MaximalSequential))*100, "maximal-save-%")
		b.ReportMetric((1-float64(r.PartialMakespan)/float64(r.PartialSequential))*100, "partial-save-%")
	}
}

// BenchmarkAblationValueFunction regenerates A1: the knapsack value
// function variants.
func BenchmarkAblationValueFunction(b *testing.B) {
	o := benchOptions()
	o.RealJobs = 200
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationValueFunction(o)
		b.ReportMetric(rows[1].Makespan.Seconds(), "eq1-s")
		b.ReportMetric(rows[3].Makespan.Seconds(), "unit-s")
	}
}

// BenchmarkAblationOversubscription regenerates A2: crash and slowdown
// behaviour of the Phi-agnostic stack on raw MPSS devices.
func BenchmarkAblationOversubscription(b *testing.B) {
	o := benchOptions()
	o.RealJobs = 200
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationOversubscription(o)
		b.ReportMetric(float64(rows[0].Crashes), "raw-crashes")
		b.ReportMetric(float64(rows[1].Crashes), "cosmic-crashes")
	}
}

// BenchmarkAblationNegotiationCycle regenerates A3: MCCK's sensitivity to
// the Condor negotiation cycle.
func BenchmarkAblationNegotiationCycle(b *testing.B) {
	o := benchOptions()
	o.SyntheticJobs = 120
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationNegotiationCycle(o)
		b.ReportMetric(rows[0].Makespan.Seconds(), "5s-cycle-s")
		b.ReportMetric(rows[len(rows)-1].Makespan.Seconds(), "60s-cycle-s")
	}
}

// BenchmarkAblationDispatchDiscipline regenerates A4: strict-FIFO versus
// first-fit offload dispatch in COSMIC.
func BenchmarkAblationDispatchDiscipline(b *testing.B) {
	o := benchOptions()
	o.RealJobs = 200
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationDispatchDiscipline(o)
		b.ReportMetric(rows[2].Makespan.Seconds(), "MCCK-fifo-s")
		b.ReportMetric(rows[3].Makespan.Seconds(), "MCCK-firstfit-s")
	}
}

// --- micro-benchmarks of the hot components ---

// BenchmarkKnapsack2D measures the per-device planning DP at the paper's
// scale: a 164-unit memory dimension, 60-unit thread dimension, and a
// 64-job window.
func BenchmarkKnapsack2D(b *testing.B) {
	r := rng.New(9)
	items := make([]knapsack.Item, 64)
	for i := range items {
		th := units.Threads(4 * (6 + r.Intn(55)))
		items[i] = knapsack.Item{
			Mem:     units.MB(300 + r.Intn(3000)),
			Threads: th,
			Value:   knapsack.Eq1Value(th, 240)*knapsack.CountBonusScale(64) + 1,
		}
	}
	cfg := knapsack.Config{MemCapacity: 8192, ThreadCapacity: 240}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knapsack.Solve(cfg, items)
	}
}

// BenchmarkKnapsack1D measures the memory-only DP used by the fill stage.
func BenchmarkKnapsack1D(b *testing.B) {
	r := rng.New(10)
	items := make([]knapsack.Item, 64)
	for i := range items {
		items[i] = knapsack.Item{Mem: units.MB(300 + r.Intn(3000)), Value: int64(1 + r.Intn(1000))}
	}
	cfg := knapsack.Config{MemCapacity: 8192}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knapsack.Solve(cfg, items)
	}
}

// BenchmarkClassAdMatch measures one symmetric matchmaking evaluation, the
// negotiator's inner loop.
func BenchmarkClassAdMatch(b *testing.B) {
	machine := classad.NewAd()
	machine.SetStr("Name", "slot1@node3")
	machine.SetInt("PhiFreeMemory", 4096)
	machine.MustSetExpr("Requirements", "TARGET.RequestPhiMemory <= MY.PhiFreeMemory")
	jobAd := classad.NewAd()
	jobAd.SetInt("RequestPhiMemory", 1250)
	jobAd.MustSetExpr("Requirements", `TARGET.Name == "slot1@node3"`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !classad.Match(machine, jobAd) {
			b.Fatal("match failed")
		}
	}
}

// BenchmarkClassAdParse measures expression parsing (qedit cost).
func BenchmarkClassAdParse(b *testing.B) {
	src := `TARGET.Name == "slot1@node3" && TARGET.PhiFreeMemory >= MY.RequestPhiMemory`
	for i := 0; i < b.N; i++ {
		if _, err := classad.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEngine measures raw event throughput of the discrete-event
// core.
func BenchmarkSimEngine(b *testing.B) {
	eng := sim.New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			eng.After(1, tick)
		}
	}
	b.ResetTimer()
	eng.After(1, tick)
	eng.Run()
}

// BenchmarkEndToEndMCCK measures one complete MCCK simulation (200 jobs,
// 8 nodes) — the unit of every macro experiment.
func BenchmarkEndToEndMCCK(b *testing.B) {
	jobs := job.GenerateTableOneSet(200, rng.New(11).Fork("tableI"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.RunConfig{
			Policy: experiments.PolicyMCCK, Nodes: 8, Jobs: jobs, Seed: 11,
		})
		b.ReportMetric(res.Makespan.Seconds(), "makespan-s")
	}
}

// BenchmarkBigCell measures a cluster an order of magnitude past the
// paper's testbed — 1,000 single-device nodes packing a 100,000-job Table I
// stream under MCC. The run is one serial event loop, so a `-cpu 1,2,4`
// sweep (see `make bench`) moves only the runtime's collector, and the
// bit-identical makespan-s metric across every cpu count is the
// determinism contract made visible in the ledger.
func BenchmarkBigCell(b *testing.B) {
	jobs := job.GenerateTableOneSet(100_000, rng.New(17).Fork("tableI"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := experiments.Run(experiments.RunConfig{
			Policy: experiments.PolicyMCC, Nodes: 1000, Jobs: jobs, Seed: 17,
		})
		b.ReportMetric(res.Makespan.Seconds(), "makespan-s")
	}
}

// BenchmarkObsOverhead measures the observability layer against the same
// end-to-end MCCK run as BenchmarkEndToEndMCCK: "disabled" is the baseline
// (no observer attached — every instrumentation site is a nil check),
// "instrumented" attaches the full obs stack (registry, trace, sampler).
// The disabled case is the one the <5% regression gate in BENCH_2.json
// guards; the instrumented case documents the cost of turning it all on.
func BenchmarkObsOverhead(b *testing.B) {
	jobs := job.GenerateTableOneSet(200, rng.New(11).Fork("tableI"))
	run := func(b *testing.B, instrumented bool) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := experiments.RunConfig{
				Policy: experiments.PolicyMCCK, Nodes: 8, Jobs: jobs, Seed: 11,
			}
			if instrumented {
				cfg.Obs = obs.New()
			}
			res := experiments.Run(cfg)
			b.ReportMetric(res.Makespan.Seconds(), "makespan-s")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("instrumented", func(b *testing.B) { run(b, true) })
}

// BenchmarkDynamicArrivals regenerates E9: response time under Poisson
// arrivals across the load sweep.
func BenchmarkDynamicArrivals(b *testing.B) {
	o := benchOptions()
	o.SyntheticJobs = 150
	for i := 0; i < b.N; i++ {
		rows := experiments.Dynamic(o, experiments.DynamicConfig{})
		for _, r := range rows {
			if r.Load == 1.4 {
				b.ReportMetric(r.MeanResponse.Seconds(), r.Policy+"-resp-s")
			}
		}
	}
}

// BenchmarkEstimation regenerates E10: learned versus conservative versus
// oracle resource declarations.
func BenchmarkEstimation(b *testing.B) {
	o := benchOptions()
	o.RealJobs = 200
	for i := 0; i < b.N; i++ {
		rows := experiments.Estimation(o)
		b.ReportMetric(rows[0].Makespan.Seconds(), "conservative-s")
		b.ReportMetric(rows[1].Makespan.Seconds(), "estimated-s")
		b.ReportMetric(rows[2].Makespan.Seconds(), "oracle-s")
	}
}

// BenchmarkKnapsackGreedyVsDP measures the value-density heuristic on the
// same instance as BenchmarkKnapsack2D, quantifying the complexity gap the
// paper's §IV-C discussion trades against exactness.
func BenchmarkKnapsackGreedyVsDP(b *testing.B) {
	r := rng.New(9)
	items := make([]knapsack.Item, 64)
	for i := range items {
		th := units.Threads(4 * (6 + r.Intn(55)))
		items[i] = knapsack.Item{
			Mem:     units.MB(300 + r.Intn(3000)),
			Threads: th,
			Value:   knapsack.Eq1Value(th, 240)*knapsack.CountBonusScale(64) + 1,
		}
	}
	cfg := knapsack.Config{MemCapacity: 8192, ThreadCapacity: 240}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		knapsack.SolveGreedy(cfg, items)
	}
}

// BenchmarkNegotiate measures one isolated matchmaking cycle against a
// prepared queue at several depths, with one machine ad churned per cycle so
// the incremental autocluster path has real invalidation work to do (the
// seven untouched machines answer from their per-cluster verdicts). The
// queue holds unmatchable jobs, so the cycle is pure matchmaking — no claims
// mutate the queue between iterations.
func BenchmarkNegotiate(b *testing.B) {
	// unmatchable builds n jobs needing more memory than any device, so the
	// queue is identical for every measured cycle.
	unmatchable := func(n int) []*job.Job {
		jobs := make([]*job.Job, n)
		for i := range jobs {
			jobs[i] = &job.Job{
				ID: i, Name: "bench", Workload: "bench",
				Mem:     100_000 + units.MB(i%7)*50,
				Threads: units.Threads(16 + (i%15)*16),
			}
			jobs[i].Phases = []job.Phase{{Kind: job.HostPhase, Duration: units.Second}}
		}
		return jobs
	}
	cycle := func(b *testing.B, nodes, depth int, prime bool) {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: nodes, Seed: 1})
		pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{})
		pool.Submit(unmatchable(depth))
		machines := pool.Machines()
		if prime {
			// Measure the steady-state verdict caches, not the cold-start
			// evaluation.
			pool.NegotiateOnce()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := machines[i%len(machines)]
			m.Ad.SetInt(condor.AttrPhiFreeMemory, int64(4000+i%97))
			pool.NegotiateOnce()
		}
	}
	for _, depth := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { cycle(b, 8, depth, false) })
	}
	// The scale anchor: one steady-state cycle at 10k machines / 100k jobs.
	// Jobs with equal signatures share an autocluster, so the scan walks
	// (autoclusters × machines), not (jobs × machines).
	b.Run("pool=10000/jobs=100000", func(b *testing.B) { cycle(b, 10_000, 100_000, true) })
	// Shallow MCC queue on a large, mostly free pool: each iteration submits
	// 64 jobs, matches them in one cycle and runs them to completion on
	// 10,000 machines. RandomPack places each job by rank in the free-slot
	// index, so the cost scales with matches, not machines; a machine walk
	// visits all 10,000 machines per job.
	b.Run("mcc-free/pool=10000/jobs=64", func(b *testing.B) {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: 10_000, Seed: 1})
		pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(1)), condor.Config{})
		batch := make([]*job.Job, 64)
		for i := range batch {
			batch[i] = &job.Job{ID: i, Name: "bench", Workload: "bench", Mem: 500, Threads: 60}
			batch[i].Phases = []job.Phase{{Kind: job.HostPhase, Duration: units.Second}}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Submit(batch)
			pool.NegotiateOnce()
			eng.RunUntil(eng.Now() + 10*units.Second)
		}
		b.StopTimer()
		if pool.InFlight() != 0 || len(pool.Pending()) != 0 {
			b.Fatalf("batch not drained: %d in flight, %d pending", pool.InFlight(), len(pool.Pending()))
		}
	})
	// Saturated deep queue, the bench deep-queue workload's steady state: an
	// MCC pool of 200 nodes with every host slot claimed and 20,000 jobs
	// pending in one autocluster. The first job's empty machine walk rejects
	// the cluster for the cycle, so the cycle costs one walk plus a skip per
	// job, where every pending job used to walk all 200 machines.
	b.Run("saturated/pool=200/jobs=20000", func(b *testing.B) {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: 200, Seed: 1})
		pool := condor.NewPool(eng, clu, scheduler.NewRandomPack(rng.New(1)), condor.Config{})
		slots := 200 * pool.Config().HostSlots
		pool.Submit(job.GenerateTableOneSet(slots+20_000, rng.New(11).Fork("tableI")))
		pool.NegotiateOnce() // claims every host slot
		if pool.InFlight() != slots || len(pool.Pending()) != 20_000 {
			b.Fatalf("pool not saturated: %d in flight, %d pending", pool.InFlight(), len(pool.Pending()))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.NegotiateOnce()
		}
	})
	// Saturated MCCK queue at deep-queue scale: every device's declared
	// memory is claimed while host slots stay free, so the knapsack pins
	// nothing and 20,000 jobs wait unpinned at Requirements = false. Every
	// machine ad churns per cycle, as claims and completions move them in a
	// running cell. The unpinned clusters fold to const-false, so the scan
	// rejects each without a machine walk; a full walk re-evaluates every
	// cluster against all 200 churned ads.
	b.Run("saturated-mcck/pool=200/jobs=20000", func(b *testing.B) {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: 200, Seed: 1})
		pool := condor.NewPool(eng, clu, core.New(core.Config{}), condor.Config{})
		machines := pool.Machines()
		fill := make([]*job.Job, len(machines))
		for i := range fill {
			fill[i] = &job.Job{ID: i, Name: "fill", Workload: "bench",
				// The most the planner's 50 MB memory quantum can pin.
				Mem: machines[0].FreeMem / 50 * 50, Threads: 60}
			fill[i].Phases = []job.Phase{{Kind: job.HostPhase, Duration: units.Second}}
		}
		pool.Submit(fill)
		for c := 0; c < 10 && len(pool.Pending()) > 0; c++ {
			pool.NegotiateOnce() // the plan window pins 64 fillers a cycle
		}
		queue := make([]*job.Job, 20_000)
		for i := range queue {
			queue[i] = &job.Job{ID: len(fill) + i, Name: "bench", Workload: "bench",
				// Eight distinct requests: eight autoclusters.
				Mem:     500 + units.MB(i%8)*250,
				Threads: units.Threads(16 + (i%15)*16),
			}
			queue[i].Phases = []job.Phase{{Kind: job.HostPhase, Duration: units.Second}}
		}
		pool.Submit(queue)
		pool.NegotiateOnce()
		if pool.InFlight() != len(machines) || len(pool.Pending()) != len(queue) {
			b.Fatalf("pool not saturated: %d in flight, %d pending", pool.InFlight(), len(pool.Pending()))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, m := range machines {
				m.Ad.SetInt(condor.AttrPhiFreeMemory, int64(m.FreeMem)+int64(i%2))
			}
			pool.NegotiateOnce()
		}
	})
}

// BenchmarkInsertPending measures the pending-queue insert on its worst
// case: every submitted job outranks the whole queue, so the binary search
// replaces a full linear walk from the tail (the insert's tail shift is a
// single memmove under both implementations — the search was the O(n)
// term that made queue building O(n²) at the 100k-job scale).
func BenchmarkInsertPending(b *testing.B) {
	for _, depth := range []int{1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			eng := sim.New()
			clu := cluster.New(eng, cluster.Config{Nodes: 1, Seed: 1})
			pool := condor.NewPool(eng, clu, scheduler.NewExclusive(), condor.Config{})
			mk := func(id int) *job.Job {
				j := &job.Job{
					ID: id, Name: "bench", Workload: "bench",
					Mem: 100_000, Threads: 60,
				}
				j.Phases = []job.Phase{{Kind: job.HostPhase, Duration: units.Second}}
				return j
			}
			// Prime the queue at priority 0 (pure appends), then submit
			// front-inserting probes at priority 1.
			prime := make([]*job.Job, depth)
			for i := range prime {
				prime[i] = mk(i)
			}
			pool.Submit(prime)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pool.SubmitWithPriority([]*job.Job{mk(depth + i)}, 1)
			}
		})
	}
}

// BenchmarkAutoclusterSignature measures one job-ad signature rendering —
// the per-job cost of autocluster assignment after a qedit or on first
// arrival — over ads shaped like the scheduler's (request attributes plus a
// requirements expression referencing both sides).
func BenchmarkAutoclusterSignature(b *testing.B) {
	signer := classad.NewSigner()
	ads := make([]*classad.Ad, 64)
	for i := range ads {
		ad := classad.NewAd()
		ad.SetInt(condor.AttrJobID, int64(i))
		ad.SetInt(condor.AttrRequestPhiMemory, int64(200+(i*97)%1800))
		ad.SetInt(condor.AttrRequestPhiThreads, int64(16+(i*53)%224))
		ad.SetInt(condor.AttrRequestPhiDevices, 1)
		ad.MustSetExpr(classad.RequirementsAttr,
			"TARGET."+condor.AttrPhiFreeMemory+" >= MY."+condor.AttrRequestPhiMemory+
				" && TARGET."+condor.AttrPhiFreeDevices+" >= MY."+condor.AttrRequestPhiDevices)
		ads[i] = ad
	}
	roots := []string{
		classad.RequirementsAttr,
		condor.AttrRequestPhiMemory,
		condor.AttrRequestPhiThreads,
		condor.AttrRequestPhiDevices,
		condor.AttrJobPrio,
	}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = signer.AppendSignature(buf[:0], ads[i%len(ads)], roots)
	}
}

// BenchmarkMillionJob is the streaming engine's headline artifact: 1,000
// heterogeneous nodes serving a full simulated diurnal day of arrivals —
// nonhomogeneous Poisson traffic with bursts, a thousand-tenant Zipf
// population — in emit-and-drop record mode. No job slice, no submit-event
// heap, no record retention: arrivals come off one self-rearming generator
// timer and terminal records fold into online aggregates, so resident
// memory is O(active jobs). The peak-heap-B metric (live heap after forced
// GC, sampled 16× across the run) is the ledger evidence: it must stay
// roughly flat — within 2× — as the day scales 100k → 1M jobs, where the
// retained pipeline would grow it 10×.
func BenchmarkMillionJob(b *testing.B) {
	nodes := 1000
	devices := workload.HeterogeneousPool(23, nodes, nil)
	run := func(b *testing.B, n int) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := experiments.Run(experiments.RunConfig{
				Policy: experiments.PolicyMCC,
				Nodes:  nodes,
				Source: workload.NewDiurnal(workload.DiurnalConfig{
					N:          n,
					Seed:       23,
					BurstCount: 6,
					Tenants:    1000,
				}),
				NodeDevices:   devices,
				Seed:          23,
				Stream:        true,
				MemProbeEvery: n / 16,
			})
			b.ReportMetric(res.Makespan.Seconds(), "makespan-s")
			b.ReportMetric(float64(res.Stream.PeakHeapBytes), "peak-heap-B")
			b.ReportMetric(float64(res.Stream.PeakPending), "peak-pending")
			b.ReportMetric(res.Stream.Stretch, "stretch")
			b.ReportMetric(res.Stream.Fairness*100, "fairness-%")
		}
	}
	b.Run("jobs=100000", func(b *testing.B) { run(b, 100_000) })
	b.Run("jobs=1000000", func(b *testing.B) { run(b, 1_000_000) })
}
