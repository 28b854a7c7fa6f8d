package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/faults"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// small keeps the drivers fast in unit tests; the full-scale parameters run
// in the benchmarks and cmd/phibench.
func small() Options {
	return Options{Seed: 42, Nodes: 4, RealJobs: 200, SyntheticJobs: 120}
}

func TestRunBasics(t *testing.T) {
	jobs := job.GenerateTableOneSet(50, rng.New(1))
	res := Run(RunConfig{Policy: PolicyMC, Nodes: 2, Jobs: jobs, Seed: 1})
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if res.Summary.Completed != 50 {
		t.Fatalf("completed %d/50", res.Summary.Completed)
	}
	if res.Utilization <= 0 || res.Utilization > 1 {
		t.Fatalf("utilization %v", res.Utilization)
	}
	if res.MaxConcurrency != 1 {
		t.Fatalf("MC concurrency %d", res.MaxConcurrency)
	}
}

func TestRunPanicsOnBadConfig(t *testing.T) {
	for name, cfg := range map[string]RunConfig{
		"no nodes":   {Policy: PolicyMC, Jobs: job.GenerateTableOneSet(1, rng.New(1))},
		"no jobs":    {Policy: PolicyMC, Nodes: 1},
		"bad policy": {Policy: "nope", Nodes: 1, Jobs: job.GenerateTableOneSet(1, rng.New(1))},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			Run(cfg)
		}()
	}
}

func TestRunDeterministic(t *testing.T) {
	jobs := job.GenerateTableOneSet(60, rng.New(2))
	a := Run(RunConfig{Policy: PolicyMCCK, Nodes: 2, Jobs: jobs, Seed: 7})
	b := Run(RunConfig{Policy: PolicyMCCK, Nodes: 2, Jobs: jobs, Seed: 7})
	if a.Makespan != b.Makespan || a.Utilization != b.Utilization {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestMotivationShape(t *testing.T) {
	r := Motivation(small())
	if r.Real < 0.30 || r.Real > 0.65 {
		t.Errorf("real-mix exclusive utilization %.2f outside the paper band", r.Real)
	}
	for d, u := range r.Synthetic {
		if u < 0.15 || u > 0.80 {
			t.Errorf("%v exclusive utilization %.2f implausible", d, u)
		}
	}
	// Low-skew jobs use few cores; high-skew many: utilization must order.
	if r.Synthetic[workload.LowSkew] >= r.Synthetic[workload.HighSkew] {
		t.Errorf("low-skew util %.2f not below high-skew %.2f",
			r.Synthetic[workload.LowSkew], r.Synthetic[workload.HighSkew])
	}
}

func TestTable2Shape(t *testing.T) {
	r := Table2(small())
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	mc, mcc, mcck := r.Rows[0], r.Rows[1], r.Rows[2]
	if mcc.Makespan >= mc.Makespan {
		t.Errorf("MCC %v not better than MC %v", mcc.Makespan, mc.Makespan)
	}
	if mcck.Makespan >= mcc.Makespan {
		t.Errorf("MCCK %v not better than MCC %v (paper's headline ordering)", mcck.Makespan, mcc.Makespan)
	}
	if mcck.Reduction < 0.25 {
		t.Errorf("MCCK reduction %.2f below the paper's scale", mcck.Reduction)
	}
	if mcc.Footprint == 0 || mcck.Footprint == 0 {
		t.Error("footprint search failed")
	}
	if mcck.Footprint > mcc.Footprint {
		t.Errorf("MCCK footprint %d worse than MCC %d", mcck.Footprint, mcc.Footprint)
	}
	if mcck.Footprint >= r.Nodes {
		t.Errorf("MCCK footprint %d shows no reduction from %d", mcck.Footprint, r.Nodes)
	}
}

func TestFig7Shape(t *testing.T) {
	r := Fig7(small())
	if len(r.Histograms) != 4 {
		t.Fatalf("histograms %d", len(r.Histograms))
	}
	var lo, n, hi float64
	for _, h := range r.Histograms {
		switch h.Dist {
		case workload.LowSkew:
			lo = h.MeanLevel()
		case workload.Normal:
			n = h.MeanLevel()
		case workload.HighSkew:
			hi = h.MeanLevel()
		}
	}
	if !(lo < n && n < hi) {
		t.Errorf("mean levels out of order: %v %v %v", lo, n, hi)
	}
}

func TestFig8Shape(t *testing.T) {
	r := Fig8(small())
	if len(r.Rows) != 4 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	var highSkewGain float64
	minOtherGain := 1.0
	for _, row := range r.Rows {
		if row.MCC >= row.MC || row.MCCK >= row.MC {
			t.Errorf("%v: sharing did not beat MC (%v/%v vs %v)", row.Dist, row.MCC, row.MCCK, row.MC)
		}
		gain := reduction(row.MC, row.MCCK)
		if row.Dist == workload.HighSkew {
			highSkewGain = gain
		} else if gain < minOtherGain {
			minOtherGain = gain
		}
	}
	if highSkewGain >= minOtherGain {
		t.Errorf("high-skew gain %.2f not the smallest (others >= %.2f)", highSkewGain, minOtherGain)
	}
}

func TestFig9Shape(t *testing.T) {
	o := small()
	o.SyntheticJobs = 80
	r := Fig9(o)
	for _, s := range r.Series {
		for i := 1; i < len(s.Sizes); i++ {
			if s.MC[i] > s.MC[i-1] {
				t.Errorf("%v: MC makespan grew with cluster size (%v -> %v)", s.Dist, s.MC[i-1], s.MC[i])
			}
		}
		// At the largest size, sharing beats MC.
		last := len(s.Sizes) - 1
		if s.MCCK[last] >= s.MC[last] {
			t.Errorf("%v: MCCK not better than MC at %d nodes", s.Dist, s.Sizes[last])
		}
	}
}

func TestTable3Shape(t *testing.T) {
	r := Table3(small())
	for _, row := range r.Rows {
		if row.MCC == 0 || row.MCCK == 0 {
			t.Errorf("%v: footprint search failed (%d, %d)", row.Dist, row.MCC, row.MCCK)
			continue
		}
		if row.MCCK > row.MCC {
			t.Errorf("%v: MCCK footprint %d worse than MCC %d", row.Dist, row.MCCK, row.MCC)
		}
		if row.MCC > r.Nodes {
			t.Errorf("%v: MCC footprint %d exceeds reference", row.Dist, row.MCC)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	o := small()
	o.SyntheticJobs = 80 // 40 jobs per node
	r := Fig10(o)
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range r.Points {
		if p.MCCK >= p.MC {
			t.Errorf("%d nodes: MCCK %v not better than MC %v at constant pressure", p.Nodes, p.MCCK, p.MC)
		}
	}
	last := r.Points[len(r.Points)-1]
	if got := reduction(last.MC, last.MCCK); got < 0.2 {
		t.Errorf("MCCK-vs-MC at max size = %.2f, want the paper's ~0.4 scale", got)
	}
}

func TestFig23Shape(t *testing.T) {
	r := Fig23(small())
	// Both sharing cases beat sequential execution.
	if r.MaximalMakespan >= r.MaximalSequential {
		t.Errorf("maximal: concurrent %v not better than sequential %v", r.MaximalMakespan, r.MaximalSequential)
	}
	if r.PartialMakespan >= r.PartialSequential {
		t.Errorf("partial: concurrent %v not better than sequential %v", r.PartialMakespan, r.PartialSequential)
	}
	// Partial-width jobs overlap better than maximal-width ones
	// (Fig. 3's point): bigger relative saving.
	maxSave := 1 - float64(r.MaximalMakespan)/float64(r.MaximalSequential)
	parSave := 1 - float64(r.PartialMakespan)/float64(r.PartialSequential)
	if parSave <= maxSave {
		t.Errorf("partial saving %.2f not better than maximal %.2f", parSave, maxSave)
	}
	// The maximal case must never oversubscribe: no overlapping offloads
	// with combined threads > 240.
	var offs []obs.Offload
	for _, s := range r.Maximal {
		for _, a := range s.Attempts {
			offs = append(offs, a.Offloads...)
		}
	}
	if len(offs) != 5 {
		t.Fatalf("maximal case recorded %d offloads, want 5 (2 + 3)", len(offs))
	}
	for i := range offs {
		if offs[i].Open {
			t.Errorf("offload %+v never ended", offs[i])
		}
		for j := i + 1; j < len(offs); j++ {
			if offs[i].End > offs[j].Start && offs[j].End > offs[i].Start &&
				offs[i].Threads+offs[j].Threads > 240 {
				t.Errorf("oversubscribed overlap: %+v and %+v", offs[i], offs[j])
			}
		}
	}
}

func TestAblationValueFunction(t *testing.T) {
	o := small()
	rows := AblationValueFunction(o)
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	base := rows[0].Makespan
	for _, r := range rows[1:] {
		if r.Makespan >= base {
			t.Errorf("%s: %v not better than MC %v", r.Name, r.Makespan, base)
		}
	}
}

func TestAblationOversubscription(t *testing.T) {
	rows := AblationOversubscription(small())
	raw, safe := rows[0], rows[1]
	if raw.Crashes == 0 {
		t.Error("agnostic raw stack produced no crashes")
	}
	if safe.Crashes != 0 {
		t.Errorf("COSMIC-protected stack crashed %d times", safe.Crashes)
	}
	if safe.Failed != 0 {
		t.Errorf("COSMIC-protected stack failed %d jobs", safe.Failed)
	}
}

func TestAblationNegotiationCycle(t *testing.T) {
	o := small()
	o.SyntheticJobs = 80
	rows := AblationNegotiationCycle(o)
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	// Longer cycles cannot help; the longest must be no better than the
	// shortest.
	if rows[len(rows)-1].Makespan < rows[0].Makespan {
		t.Errorf("60s cycle %v beat 5s cycle %v", rows[len(rows)-1].Makespan, rows[0].Makespan)
	}
}

func TestAblationDispatchDiscipline(t *testing.T) {
	o := small()
	o.RealJobs = 120
	rows := AblationDispatchDiscipline(o)
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.Makespan <= 0 {
			t.Errorf("%s: empty makespan", r.Name)
		}
	}
}

func TestFootprintMonotoneTarget(t *testing.T) {
	jobs := job.GenerateTableOneSet(80, rng.New(3))
	base := Run(RunConfig{Policy: PolicyMC, Nodes: 4, Jobs: jobs, Seed: 3}).Makespan
	fp, ok := Footprint(RunConfig{Policy: PolicyMCCK, Jobs: jobs, Seed: 3, Nodes: 1}, base, 4)
	if !ok {
		t.Fatal("footprint not found even at reference size")
	}
	if fp < 1 || fp > 4 {
		t.Fatalf("footprint %d out of range", fp)
	}
	// An impossible target finds nothing.
	if _, ok := Footprint(RunConfig{Policy: PolicyMCCK, Jobs: jobs, Seed: 3, Nodes: 1}, units.Tick(1), 4); ok {
		t.Error("impossible footprint target satisfied")
	}
}

func TestReportsRender(t *testing.T) {
	o := small()
	o.RealJobs = 60
	o.SyntheticJobs = 60
	var buf bytes.Buffer
	WriteMotivation(&buf, Motivation(o))
	WriteTable2(&buf, Table2(o))
	WriteFig7(&buf, Fig7(o))
	WriteFig8(&buf, Fig8(o))
	WriteTable3(&buf, Table3(o))
	WriteFig23(&buf, Fig23(o))
	WriteAblation(&buf, "A1", AblationValueFunction(o))
	WriteOversub(&buf, AblationOversubscription(o))
	WriteDynamic(&buf, Dynamic(o, DynamicConfig{Loads: []float64{0.8}, Jobs: 40}))
	WriteEstimation(&buf, Estimation(Options{Seed: o.Seed, Nodes: o.Nodes, RealJobs: 60}))
	WriteTransfer(&buf, []TransferRow{{Policy: "MC", BandwidthMBps: 6000, Makespan: 100}})
	WriteCycles(&buf, []CycleRow{{Cycle: 100, Makespan: 100}})
	WriteTable2Multi(&buf, Table2Multi(Options{Seed: 1, Nodes: o.Nodes, RealJobs: 60}, []int64{1, 2}))
	out := buf.String()
	for _, want := range []string{"E1", "Table II", "Fig. 7", "Fig. 8", "Table III", "Figs. 2-3",
		"A1", "A2", "E9", "E10", "A5", "A3", "workload seeds"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "%!") {
		t.Errorf("format verb error in report:\n%s", out)
	}
}

func TestDynamicShape(t *testing.T) {
	o := small()
	rows := Dynamic(o, DynamicConfig{Loads: []float64{0.5, 1.4}, Jobs: 100})
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	get := func(load float64, policy string) DynamicRow {
		for _, r := range rows {
			if r.Load == load && r.Policy == policy {
				return r
			}
		}
		t.Fatalf("missing row %v/%s", load, policy)
		return DynamicRow{}
	}
	for _, r := range rows {
		if r.Completed != 100 {
			t.Errorf("%s@%v completed %d/100", r.Policy, r.Load, r.Completed)
		}
		if r.MeanResponse <= 0 || r.P95Response < r.MeanResponse {
			t.Errorf("%s@%v response stats inconsistent: %+v", r.Policy, r.Load, r)
		}
	}
	// Past the exclusive stack's saturation point, sharing must respond
	// faster.
	if get(1.4, PolicyMCC).MeanResponse >= get(1.4, PolicyMC).MeanResponse {
		t.Errorf("overloaded MCC response %v not below MC %v",
			get(1.4, PolicyMCC).MeanResponse, get(1.4, PolicyMC).MeanResponse)
	}
	if get(1.4, PolicyMCCK).MeanResponse >= get(1.4, PolicyMC).MeanResponse {
		t.Errorf("overloaded MCCK response %v not below MC %v",
			get(1.4, PolicyMCCK).MeanResponse, get(1.4, PolicyMC).MeanResponse)
	}
	// Higher load cannot shrink MC's response time.
	if get(1.4, PolicyMC).MeanResponse < get(0.5, PolicyMC).MeanResponse {
		t.Error("MC response improved under higher load")
	}
}

func TestDynamicDeterministic(t *testing.T) {
	o := small()
	a := Dynamic(o, DynamicConfig{Loads: []float64{0.8}, Jobs: 50})
	b := Dynamic(o, DynamicConfig{Loads: []float64{0.8}, Jobs: 50})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dynamic runs differ: %+v vs %+v", a[i], b[i])
		}
	}
}

func TestDynamicPanicsOnBadLoad(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative load accepted")
		}
	}()
	Dynamic(small(), DynamicConfig{Loads: []float64{-1}})
}

func TestEstimationShape(t *testing.T) {
	o := small()
	o.RealJobs = 150
	rows := Estimation(o)
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	conservative, estimated, oracle := rows[0], rows[1], rows[2]
	// Conservative declarations collapse sharing: exactly one job per
	// device, no crashes.
	if conservative.MaxConcurrency != 1 {
		t.Errorf("conservative max concurrency %d, want 1", conservative.MaxConcurrency)
	}
	if conservative.Crashes != 0 {
		t.Errorf("conservative regime crashed %d times", conservative.Crashes)
	}
	// The estimator must recover sharing: better than conservative, with
	// concurrency above 1, approaching the oracle.
	if estimated.Makespan >= conservative.Makespan {
		t.Errorf("estimated %v not better than conservative %v",
			estimated.Makespan, conservative.Makespan)
	}
	if estimated.MaxConcurrency < 2 {
		t.Errorf("estimated max concurrency %d, want sharing", estimated.MaxConcurrency)
	}
	if oracle.Makespan > estimated.Makespan {
		t.Errorf("oracle %v worse than estimated %v (oracle declarations are tighter)",
			oracle.Makespan, estimated.Makespan)
	}
	// The estimator should recover most of the oracle's gain.
	gap := float64(estimated.Makespan-oracle.Makespan) / float64(oracle.Makespan)
	if gap > 0.35 {
		t.Errorf("estimated trails oracle by %.0f%%, want within 35%%", gap*100)
	}
	if estimated.KnownClasses != 7 {
		t.Errorf("known classes %d, want all 7 Table I workloads", estimated.KnownClasses)
	}
}

func TestEstimationDeterministic(t *testing.T) {
	o := small()
	o.RealJobs = 80
	a := Estimation(o)
	b := Estimation(o)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("estimation runs differ: %+v vs %+v", a[i], b[i])
		}
	}
}

func TestAblationTransferContention(t *testing.T) {
	o := small()
	o.SyntheticJobs = 100 // 50 transfer-heavy jobs
	rows := AblationTransferContention(o)
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	get := func(policy string, bw float64) units.Tick {
		for _, r := range rows {
			if r.Policy == policy && r.BandwidthMBps == bw {
				return r.Makespan
			}
		}
		t.Fatalf("missing %s@%v", policy, bw)
		return 0
	}
	// A starved link slows every stack, but hurts the sharing stacks more
	// in absolute terms (they multiplex more concurrent DMA).
	for _, p := range Policies() {
		if get(p, 1500) < get(p, 6000) {
			t.Errorf("%s: faster on a slower link", p)
		}
	}
	mcSlowdown := float64(get(PolicyMC, 1500)) / float64(get(PolicyMC, 6000))
	mcckSlowdown := float64(get(PolicyMCCK, 1500)) / float64(get(PolicyMCCK, 6000))
	if mcckSlowdown < mcSlowdown {
		t.Errorf("link starvation hurt MC (%.2fx) more than MCCK (%.2fx)", mcSlowdown, mcckSlowdown)
	}
	// At full bandwidth, sharing still wins on transfer-heavy jobs.
	if get(PolicyMCCK, 6000) >= get(PolicyMC, 6000) {
		t.Error("MCCK lost to MC on transfer-heavy jobs at full bandwidth")
	}
}

func TestAblationClaimReuse(t *testing.T) {
	o := small()
	o.RealJobs = 120
	rows := AblationClaimReuse(o)
	if len(rows) != 6 {
		t.Fatalf("rows %d", len(rows))
	}
	// MC has no placement decision to lose: reuse strictly removes
	// negotiation latency and must help.
	if rows[1].Makespan >= rows[0].Makespan {
		t.Errorf("MC claim-reuse %v not faster than negotiated %v",
			rows[1].Makespan, rows[0].Makespan)
	}
	// For the sharing stacks, eager local reuse trades placement quality
	// for latency; it must stay within 10% either way, never collapse.
	for i := 2; i < len(rows); i += 2 {
		negotiated, reused := rows[i], rows[i+1]
		ratio := float64(reused.Makespan) / float64(negotiated.Makespan)
		if ratio > 1.10 || ratio < 0.5 {
			t.Errorf("%s/%s ratio %.2f out of the plausible band",
				reused.Name, negotiated.Name, ratio)
		}
	}
}

func TestParmapOrderAndCoverage(t *testing.T) {
	out := parmap(100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("parmap[%d] = %d", i, v)
		}
	}
	if parmap(0, func(int) int { return 1 }) != nil {
		t.Error("parmap(0) not nil")
	}
	if got := parmap(1, func(int) string { return "x" }); len(got) != 1 || got[0] != "x" {
		t.Errorf("parmap(1) = %v", got)
	}
}

func TestParallelSweepsDeterministic(t *testing.T) {
	// Parallel execution must not change results: two Fig9 runs agree, and
	// sequential cells (via direct Run) match the parallel grid.
	o := small()
	o.SyntheticJobs = 60
	a := Fig9(o)
	b := Fig9(o)
	for i := range a.Series {
		for j := range a.Series[i].Sizes {
			if a.Series[i].MCCK[j] != b.Series[i].MCCK[j] {
				t.Fatalf("parallel Fig9 nondeterministic at %d/%d", i, j)
			}
		}
	}
	jobs := o.syntheticJobSet(a.Series[0].Dist)
	direct := Run(RunConfig{Policy: PolicyMCCK, Nodes: a.Series[0].Sizes[0], Jobs: jobs, Seed: o.Seed}).Makespan
	if direct != a.Series[0].MCCK[0] {
		t.Errorf("parallel cell %v != sequential run %v", a.Series[0].MCCK[0], direct)
	}
}

// TestOptimizedPathsPreserveOutcomes is the regression gate for the hot-path
// optimizations (reusable knapsack solver, negotiator match cache, pooled sim
// events): the full MCCK stack must produce bit-for-bit identical per-job
// record streams whether it runs through the optimized paths or the
// unoptimized reference paths, and repeated optimized runs must agree with
// each other. Any divergence means an optimization changed a scheduling
// decision, which is never acceptable here.
func TestOptimizedPathsPreserveOutcomes(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		jobs := job.GenerateTableOneSet(90, rng.New(seed))
		run := func(refSolver, noCache bool) (Result, []metrics.JobRecord) {
			var recs []metrics.JobRecord
			res := Run(RunConfig{
				Policy:     PolicyMCCK,
				Nodes:      3,
				Jobs:       jobs,
				Seed:       seed,
				Core:       core.Config{ReferenceSolver: refSolver},
				Condor:     condor.Config{DisableMatchCache: noCache},
				RecordSink: &recs,
			})
			return res, recs
		}
		opt1, recs1 := run(false, false)
		opt2, recs2 := run(false, false)
		ref, recsRef := run(true, true)

		if opt1.Makespan != opt2.Makespan || !reflect.DeepEqual(recs1, recs2) {
			t.Fatalf("seed %d: repeated optimized runs diverge (%v vs %v)",
				seed, opt1.Makespan, opt2.Makespan)
		}
		if opt1.Makespan != ref.Makespan {
			t.Errorf("seed %d: optimized makespan %v != reference %v",
				seed, opt1.Makespan, ref.Makespan)
		}
		if !reflect.DeepEqual(recs1, recsRef) {
			for i := range recs1 {
				if i < len(recsRef) && recs1[i] != recsRef[i] {
					t.Errorf("seed %d: record %d differs:\noptimized: %+v\nreference: %+v",
						seed, i, recs1[i], recsRef[i])
					break
				}
			}
			t.Fatalf("seed %d: optimized record stream (%d records) != reference (%d records)",
				seed, len(recs1), len(recsRef))
		}
	}
}

func TestTable2MultiShape(t *testing.T) {
	o := small()
	o.RealJobs = 150
	stats := Table2Multi(o, []int64{1, 2, 3})
	if len(stats) != 3 {
		t.Fatalf("stats %d", len(stats))
	}
	var mcck SeedStats
	for _, s := range stats {
		if s.Seeds != 3 {
			t.Errorf("%s seeds %d", s.Policy, s.Seeds)
		}
		if s.MeanMakespan <= 0 {
			t.Errorf("%s mean makespan %v", s.Policy, s.MeanMakespan)
		}
		if s.Policy == PolicyMCCK {
			mcck = s
		}
	}
	if mcck.MeanReduction < 0.25 || mcck.MeanReduction > 0.55 {
		t.Errorf("MCCK mean reduction %.2f off the paper's scale", mcck.MeanReduction)
	}
	// A calibrated, non-degenerate model should be stable across seeds.
	if mcck.StdReduction > 0.08 {
		t.Errorf("MCCK reduction std %.3f too noisy", mcck.StdReduction)
	}
}

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 || s != 2 {
		t.Errorf("meanStd = %v, %v (want 5, 2)", m, s)
	}
	if m, s := meanStd(nil); m != 0 || s != 0 {
		t.Errorf("empty meanStd = %v, %v", m, s)
	}
}

// TestReferencePathOutcomeEquivalence is the acceptance gate for the
// autocluster + sparse-solver generation of optimizations: across seeds ×
// policies × fault regimes, a run with every optimization enabled must be
// bit-for-bit identical — job record stream, makespan, summary, utilization,
// concurrency — to the same run with every optimization forced onto its
// reference path (no match cache, reference dense knapsack). Faulted cells
// run under the light chaos profile with invariant checking, so the
// equivalence also covers the dirty-cycle bookkeeping that fault transitions
// exercise.
func TestReferencePathOutcomeEquivalence(t *testing.T) {
	type outcome struct {
		makespan       units.Tick
		utilization    float64
		maxConcurrency int
		summary        metrics.Summary
		records        []metrics.JobRecord
	}
	cell := func(t *testing.T, policy string, seed int64, faulted, reference bool, n, nodes int) outcome {
		jobs := job.GenerateTableOneSet(n, rng.New(seed).Fork("tableI"))
		cfg := RunConfig{Policy: policy, Nodes: nodes, Jobs: jobs, Seed: seed}
		var recs []metrics.JobRecord
		cfg.RecordSink = &recs
		if reference {
			cfg.Condor = condor.Config{DisableMatchCache: true}
			cfg.Core = core.Config{ReferenceSolver: true}
		}
		var h *faults.Harness
		if faulted {
			h = &faults.Harness{Profile: faults.LightProfile(), Seed: seed, Check: true}
			cfg.Chaos = h
		}
		res := Run(cfg)
		if h != nil {
			if violations := h.Finish(); len(violations) > 0 {
				t.Fatalf("%s seed %d (reference=%v): invariant violations: %v",
					policy, seed, reference, violations)
			}
		}
		return outcome{res.Makespan, res.Utilization, res.MaxConcurrency, res.Summary, recs}
	}
	compare := func(t *testing.T, policy string, seed int64, faulted bool, label string, got, want outcome) {
		t.Helper()
		if got.makespan != want.makespan || got.utilization != want.utilization ||
			got.maxConcurrency != want.maxConcurrency || got.summary != want.summary {
			t.Errorf("%s seed %d faulted=%v (%s): aggregates diverge:\ngot  %+v\nwant %+v",
				policy, seed, faulted, label, got.summary, want.summary)
		}
		if !reflect.DeepEqual(got.records, want.records) {
			for i := range got.records {
				if i < len(want.records) && got.records[i] != want.records[i] {
					t.Errorf("%s seed %d faulted=%v (%s): record %d differs:\ngot  %+v\nwant %+v",
						policy, seed, faulted, label, i, got.records[i], want.records[i])
					break
				}
			}
			t.Fatalf("%s seed %d faulted=%v (%s): record stream diverges (%d vs %d records)",
				policy, seed, faulted, label, len(got.records), len(want.records))
		}
	}
	for _, policy := range []string{PolicyMC, PolicyMCC, PolicyMCCK} {
		for seed := int64(1); seed <= 10; seed++ {
			for _, faulted := range []bool{false, true} {
				opt := cell(t, policy, seed, faulted, false, 60, 3)
				ref := cell(t, policy, seed, faulted, true, 60, 3)
				compare(t, policy, seed, faulted, "reference path", opt, ref)
			}
		}
	}
	// Saturated deep queues keep every host slot (MCC) or device (MC)
	// claimed behind a long backlog for most of the run, the regime where
	// the negotiator rejects whole autoclusters per cycle. The small cells
	// above rarely reach it; the DisableMatchCache oracle never applies the
	// rule. MC's oracle re-evaluates every (pending job, machine) pair each
	// cycle, so its cell is smaller at the same jobs-per-node depth. These
	// cells dominate the test's cost and share no state, so they run as
	// parallel subtests.
	for _, deep := range []struct {
		policy   string
		n, nodes int
	}{{PolicyMCC, 2_000, 20}, {PolicyMC, 500, 5}} {
		for _, faulted := range []bool{false, true} {
			name := fmt.Sprintf("saturated/%s-%dx%d/faulted=%v", deep.policy, deep.n, deep.nodes, faulted)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				opt := cell(t, deep.policy, 1, faulted, false, deep.n, deep.nodes)
				ref := cell(t, deep.policy, 1, faulted, true, deep.n, deep.nodes)
				compare(t, deep.policy, 1, faulted, fmt.Sprintf("saturated %d jobs reference path", deep.n), opt, ref)
			})
		}
	}
	// Footprint (the paper's cluster-size-for-equal-makespan metric) runs a
	// search over cluster sizes, so spot-check it on a couple of cells
	// rather than the full grid.
	for _, seed := range []int64{1, 2} {
		jobs := job.GenerateTableOneSet(60, rng.New(seed).Fork("tableI"))
		base := Run(RunConfig{Policy: PolicyMC, Nodes: 3, Jobs: jobs, Seed: seed})
		optFP, optOK := Footprint(RunConfig{Policy: PolicyMCCK, Nodes: 3, Jobs: jobs, Seed: seed},
			base.Makespan, 6)
		refFP, refOK := Footprint(RunConfig{
			Policy: PolicyMCCK, Nodes: 3, Jobs: jobs, Seed: seed,
			Condor: condor.Config{DisableMatchCache: true},
			Core:   core.Config{ReferenceSolver: true},
		}, base.Makespan, 6)
		if optFP != refFP || optOK != refOK {
			t.Errorf("seed %d: footprint diverges: optimized (%d, %v) vs reference (%d, %v)",
				seed, optFP, optOK, refFP, refOK)
		}
	}
}
