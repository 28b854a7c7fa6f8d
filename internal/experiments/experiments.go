package experiments

import (
	"fmt"
	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/phi"
	"phishare/internal/rng"
	"phishare/internal/runner"
	"phishare/internal/sim"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// Options shared by the experiment drivers.
type Options struct {
	// Seed makes every artifact reproducible. Default 42.
	Seed int64
	// Nodes is the reference cluster size (paper: 8).
	Nodes int
	// RealJobs is the Table I instance count (paper: 1000).
	RealJobs int
	// SyntheticJobs is the per-distribution synthetic count (paper: 400).
	SyntheticJobs int
}

// Defaults fills zero fields with the paper's values.
func (o Options) Defaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Nodes == 0 {
		o.Nodes = 8
	}
	if o.RealJobs == 0 {
		o.RealJobs = 1000
	}
	if o.SyntheticJobs == 0 {
		o.SyntheticJobs = 400
	}
	return o
}

// realJobSet draws the Table I workload.
func (o Options) realJobSet() []*job.Job {
	return job.GenerateTableOneSet(o.RealJobs, rng.New(o.Seed).Fork("tableI"))
}

func (o Options) syntheticJobSet(d workload.Distribution) []*job.Job {
	return workload.Generate(workload.Config{Dist: d, N: o.SyntheticJobs, Seed: o.Seed})
}

// --- E1: §III motivation ---

// MotivationResult reproduces the §III utilization measurements: average
// core utilization under the exclusive policy for the real job mix (paper:
// ~50%, 38% in the abstract's phrasing) and for the synthetic distributions
// (paper: 38%–63%).
type MotivationResult struct {
	Real      float64
	Synthetic map[workload.Distribution]float64
}

// Motivation runs E1.
func Motivation(o Options) MotivationResult {
	o = o.Defaults()
	res := MotivationResult{Synthetic: map[workload.Distribution]float64{}}
	res.Real = Run(RunConfig{
		Policy: PolicyMC, Nodes: o.Nodes, Jobs: o.realJobSet(), Seed: o.Seed,
	}).Utilization
	for _, d := range workload.Distributions() {
		res.Synthetic[d] = Run(RunConfig{
			Policy: PolicyMC, Nodes: o.Nodes, Jobs: o.syntheticJobSet(d), Seed: o.Seed,
		}).Utilization
	}
	return res
}

// --- E2: Table II ---

// Table2Row is one configuration's makespan and footprint entry.
type Table2Row struct {
	Policy             string
	Makespan           units.Tick
	Reduction          float64 // vs MC
	Footprint          int     // cluster size matching MC@Nodes makespan (0 for MC)
	FootprintReduction float64
}

// Table2Result reproduces Table II.
type Table2Result struct {
	Nodes int
	Jobs  int
	// LowerBound is the analytic makespan floor (job.MakespanLowerBound):
	// no schedule can beat it, so it contextualizes how much headroom the
	// sharing schedulers leave.
	LowerBound units.Tick
	Rows       []Table2Row // MC, MCC, MCCK
}

// Table2 runs E2: 1000 real jobs on the reference cluster under the three
// configurations, plus the footprint search for the sharing ones.
func Table2(o Options) Table2Result {
	o = o.Defaults()
	jobs := o.realJobSet()
	out := Table2Result{Nodes: o.Nodes, Jobs: len(jobs)}

	out.LowerBound = job.MakespanLowerBound(jobs, o.Nodes)
	base := Run(RunConfig{Policy: PolicyMC, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed})
	out.Rows = append(out.Rows, Table2Row{Policy: PolicyMC, Makespan: base.Makespan})

	for _, p := range []string{PolicyMCC, PolicyMCCK} {
		r := Run(RunConfig{Policy: p, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed})
		fp, ok := Footprint(RunConfig{Policy: p, Jobs: jobs, Seed: o.Seed, Nodes: 1}, base.Makespan, o.Nodes)
		row := Table2Row{
			Policy:    p,
			Makespan:  r.Makespan,
			Reduction: 1 - float64(r.Makespan)/float64(base.Makespan),
		}
		if ok {
			row.Footprint = fp
			row.FootprintReduction = 1 - float64(fp)/float64(o.Nodes)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// --- E3: Fig. 7 ---

// Fig7Result is the four resource-distribution histograms.
type Fig7Result struct {
	Histograms []workload.Histogram
}

// Fig7 runs E3: generate each synthetic job set and bin its resource
// levels.
func Fig7(o Options) Fig7Result {
	o = o.Defaults()
	var out Fig7Result
	for _, d := range workload.Distributions() {
		cfg := workload.Config{Dist: d, N: o.SyntheticJobs, Seed: o.Seed}
		jobs := workload.Generate(cfg)
		out.Histograms = append(out.Histograms, workload.BuildHistogram(d, jobs, cfg, 10))
	}
	return out
}

// --- E4: Fig. 8 ---

// Fig8Row is one distribution's makespans under the three configurations.
type Fig8Row struct {
	Dist          workload.Distribution
	MC, MCC, MCCK units.Tick
}

// Fig8Result reproduces Fig. 8 (makespan sensitivity to job resource
// distribution).
type Fig8Result struct {
	Nodes int
	Jobs  int
	Rows  []Fig8Row
}

// Fig8 runs E4.
func Fig8(o Options) Fig8Result {
	o = o.Defaults()
	out := Fig8Result{Nodes: o.Nodes, Jobs: o.SyntheticJobs}
	for _, d := range workload.Distributions() {
		jobs := o.syntheticJobSet(d)
		row := Fig8Row{Dist: d}
		row.MC = Run(RunConfig{Policy: PolicyMC, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed}).Makespan
		row.MCC = Run(RunConfig{Policy: PolicyMCC, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed}).Makespan
		row.MCCK = Run(RunConfig{Policy: PolicyMCCK, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed}).Makespan
		out.Rows = append(out.Rows, row)
	}
	return out
}

// --- E5: Fig. 9 ---

// Fig9Series is one distribution's makespan-vs-cluster-size curves.
type Fig9Series struct {
	Dist  workload.Distribution
	Sizes []int
	MC    []units.Tick
	MCC   []units.Tick
	MCCK  []units.Tick
}

// Fig9Result reproduces Fig. 9 (effect of cluster size, 400 jobs fixed).
type Fig9Result struct {
	Jobs   int
	Series []Fig9Series
}

// Fig9 runs E5: cluster sizes 2..Nodes for each distribution and policy.
// The 4 distributions × 7 sizes × 3 policies grid is embarrassingly
// parallel; cells run concurrently via parmap.
func Fig9(o Options) Fig9Result {
	o = o.Defaults()
	dists := workload.Distributions()
	jobSets := make([][]*job.Job, len(dists))
	for i, d := range dists {
		jobSets[i] = o.syntheticJobSet(d)
	}
	var sizes []int
	for n := 2; n <= o.Nodes; n++ {
		sizes = append(sizes, n)
	}
	type cell struct{ mc, mcc, mcck units.Tick }
	cells := parmap(len(dists)*len(sizes), func(idx int) cell {
		jobs := jobSets[idx/len(sizes)]
		n := sizes[idx%len(sizes)]
		return cell{
			mc:   Run(RunConfig{Policy: PolicyMC, Nodes: n, Jobs: jobs, Seed: o.Seed}).Makespan,
			mcc:  Run(RunConfig{Policy: PolicyMCC, Nodes: n, Jobs: jobs, Seed: o.Seed}).Makespan,
			mcck: Run(RunConfig{Policy: PolicyMCCK, Nodes: n, Jobs: jobs, Seed: o.Seed}).Makespan,
		}
	})

	out := Fig9Result{Jobs: o.SyntheticJobs}
	for di, d := range dists {
		s := Fig9Series{Dist: d}
		for si, n := range sizes {
			c := cells[di*len(sizes)+si]
			s.Sizes = append(s.Sizes, n)
			s.MC = append(s.MC, c.mc)
			s.MCC = append(s.MCC, c.mcc)
			s.MCCK = append(s.MCCK, c.mcck)
		}
		out.Series = append(out.Series, s)
	}
	return out
}

// --- E6: Table III ---

// Table3Row is one distribution's footprints.
type Table3Row struct {
	Dist workload.Distribution
	MC   int // always the reference size
	MCC  int
	MCCK int
}

// Table3Result reproduces Table III (footprint by distribution).
type Table3Result struct {
	Nodes int
	Rows  []Table3Row
}

// Table3 runs E6: per distribution, the smallest cluster whose MCC/MCCK
// makespan matches MC on the reference cluster. The four distributions'
// searches are independent and run concurrently.
func Table3(o Options) Table3Result {
	o = o.Defaults()
	dists := workload.Distributions()
	rows := parmap(len(dists), func(i int) Table3Row {
		d := dists[i]
		jobs := o.syntheticJobSet(d)
		base := Run(RunConfig{Policy: PolicyMC, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed}).Makespan
		row := Table3Row{Dist: d, MC: o.Nodes}
		if fp, ok := Footprint(RunConfig{Policy: PolicyMCC, Jobs: jobs, Seed: o.Seed, Nodes: 1}, base, o.Nodes); ok {
			row.MCC = fp
		}
		if fp, ok := Footprint(RunConfig{Policy: PolicyMCCK, Jobs: jobs, Seed: o.Seed, Nodes: 1}, base, o.Nodes); ok {
			row.MCCK = fp
		}
		return row
	})
	return Table3Result{Nodes: o.Nodes, Rows: rows}
}

// --- E7: Fig. 10 ---

// Fig10Point is one cluster size at constant job pressure.
type Fig10Point struct {
	Nodes         int
	Jobs          int
	MC, MCC, MCCK units.Tick
}

// Fig10Result reproduces Fig. 10: makespan under constant job pressure
// (jobs scale with cluster size; normal distribution).
type Fig10Result struct {
	Points []Fig10Point
}

// Fig10 runs E7: nodes 2,4,6,8 with 200 jobs per node (400→1600), normal
// resource distribution.
func Fig10(o Options) Fig10Result {
	o = o.Defaults()
	var out Fig10Result
	perNode := o.SyntheticJobs / 2 // 400 jobs at 2 nodes = 200/node
	for n := 2; n <= o.Nodes; n += 2 {
		jobs := workload.Generate(workload.Config{
			Dist: workload.Normal, N: perNode * n, Seed: o.Seed,
		})
		pt := Fig10Point{Nodes: n, Jobs: len(jobs)}
		pt.MC = Run(RunConfig{Policy: PolicyMC, Nodes: n, Jobs: jobs, Seed: o.Seed}).Makespan
		pt.MCC = Run(RunConfig{Policy: PolicyMCC, Nodes: n, Jobs: jobs, Seed: o.Seed}).Makespan
		pt.MCCK = Run(RunConfig{Policy: PolicyMCCK, Nodes: n, Jobs: jobs, Seed: o.Seed}).Makespan
		out.Points = append(out.Points, pt)
	}
	return out
}

// --- E8: Figs. 2–3 ---

// Fig23Result holds the two offload-overlap timelines as job spans (job
// ids 1 and 2; fig23Names names them).
type Fig23Result struct {
	// Maximal is the Fig. 2 case: two jobs whose offloads each use all 240
	// threads; sharing interleaves host gaps but offloads serialize.
	Maximal           []*obs.Span
	MaximalMakespan   units.Tick
	MaximalSequential units.Tick
	// Partial is the Fig. 3 case: two 120-thread jobs whose offloads
	// overlap freely.
	Partial           []*obs.Span
	PartialMakespan   units.Tick
	PartialSequential units.Tick
}

// fig23Names maps the E8 job ids to the names the timelines print.
var fig23Names = map[int64]string{1: "J1", 2: "J2"}

// fig23Job builds the illustrative two-offload/three-offload jobs of
// Figs. 2–3.
func fig23Job(id int, name string, threads units.Threads, offloads int) *job.Job {
	j := &job.Job{
		ID: id, Name: name, Workload: "fig23",
		Mem: 1000, Threads: threads, ActualPeakMem: 900,
	}
	j.Phases = append(j.Phases, job.Phase{Kind: job.HostPhase, Duration: 2 * units.Second})
	for i := 0; i < offloads; i++ {
		j.Phases = append(j.Phases,
			job.Phase{Kind: job.OffloadPhase, Duration: 3 * units.Second, Threads: threads},
			job.Phase{Kind: job.HostPhase, Duration: 2 * units.Second})
	}
	return j
}

// Fig23 runs E8: each pair shares one COSMIC-managed device, whose
// observer records the resulting usage profile as job spans.
func Fig23(o Options) Fig23Result {
	o = o.Defaults()
	run := func(threads units.Threads) ([]*obs.Span, units.Tick, units.Tick) {
		eng := sim.New()
		clu := cluster.New(eng, cluster.Config{Nodes: 1, UseCosmic: true, Seed: o.Seed})
		ob := obs.New()
		clu.Units[0].Device.SetObserver(ob)
		j1 := fig23Job(1, fig23Names[1], threads, 2)
		j2 := fig23Job(2, fig23Names[2], threads, 3)
		var makespan units.Tick
		for _, j := range []*job.Job{j1, j2} {
			runner.Run(clu.Units[0], j, runner.DoneFunc(func(runner.Result) {
				if eng.Now() > makespan {
					makespan = eng.Now()
				}
			}))
		}
		eng.Run()
		return obs.SpansFromTrace(ob.Trace), makespan, j1.SequentialTime() + j2.SequentialTime()
	}
	var out Fig23Result
	out.Maximal, out.MaximalMakespan, out.MaximalSequential = run(240)
	out.Partial, out.PartialMakespan, out.PartialSequential = run(120)
	return out
}

// --- A1: value-function ablation ---

// AblationRow is one variant's makespan.
type AblationRow struct {
	Name      string
	Makespan  units.Tick
	Reduction float64 // vs the first row's baseline context (set by driver)
}

// AblationValueFunction compares the Eq. 1 value against the linear and
// unit values, memory-only packing, and no-fill packing, on the real mix.
func AblationValueFunction(o Options) []AblationRow {
	o = o.Defaults()
	jobs := o.realJobSet()
	base := Run(RunConfig{Policy: PolicyMC, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed}).Makespan
	variants := []struct {
		name string
		cfg  core.Config
	}{
		{"eq1 (paper)", core.Config{}},
		{"linear value", core.Config{Value: core.Linear}},
		{"unit value", core.Config{Value: core.Unit}},
		{"no thread dim", core.Config{DisableThreadDim: true}},
		{"no fill stage", core.Config{DisableFill: true}},
	}
	rows := []AblationRow{{Name: "MC baseline", Makespan: base}}
	for _, v := range variants {
		m := Run(RunConfig{Policy: PolicyMCCK, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed, Core: v.cfg}).Makespan
		rows = append(rows, AblationRow{
			Name:      "MCCK " + v.name,
			Makespan:  m,
			Reduction: 1 - float64(m)/float64(base),
		})
	}
	return rows
}

// --- A2: oversubscription ablation ---

// OversubRow summarizes one stack's behaviour under oversubscription-prone
// conditions.
type OversubRow struct {
	Name     string
	Makespan units.Tick
	Crashes  int
	Failed   int
}

// AblationOversubscription reproduces the §II-C / §III hazard: the same job
// mix run through (a) a Phi-agnostic Condor on raw MPSS devices, where jobs
// oversubscribe memory and threads freely, and (b) the COSMIC-protected MCC
// stack. Jobs get a retry budget so the agnostic stack's crashes inflate
// its makespan rather than just its failure count.
func AblationOversubscription(o Options) []OversubRow {
	o = o.Defaults()
	jobs := o.realJobSet()
	// A Phi-agnostic Condor advertises one slot per host core (16 on the
	// paper's 2x8-core servers): nothing ties slot count to the single
	// coprocessor, so up to 16 jobs pile onto one card — the §III setup.
	raw := Run(RunConfig{
		Policy: PolicyAgnostic, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed,
		Condor: condor.Config{MaxRetries: 5, HostSlots: 16},
	})
	safe := Run(RunConfig{
		Policy: PolicyMCC, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed,
		Condor: condor.Config{MaxRetries: 5},
	})
	return []OversubRow{
		{Name: "Agnostic + raw MPSS", Makespan: raw.Makespan, Crashes: raw.Summary.Crashes, Failed: raw.Summary.Failed},
		{Name: "MCC (COSMIC-protected)", Makespan: safe.Makespan, Crashes: safe.Summary.Crashes, Failed: safe.Summary.Failed},
	}
}

// --- A3: negotiation-cycle ablation ---

// CycleRow is one negotiation-cycle setting's MCCK makespan.
type CycleRow struct {
	Cycle    units.Tick
	Makespan units.Tick
}

// AblationNegotiationCycle sweeps the Condor negotiation cycle for MCCK on
// the normal distribution — the integration overhead that produces Fig. 8's
// high-skew dip grows with the cycle.
func AblationNegotiationCycle(o Options) []CycleRow {
	o = o.Defaults()
	jobs := o.syntheticJobSet(workload.Normal)
	var rows []CycleRow
	for _, c := range []units.Tick{5 * units.Second, 10 * units.Second, 30 * units.Second, 60 * units.Second} {
		m := Run(RunConfig{
			Policy: PolicyMCCK, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed,
			Condor: condor.Config{NegotiationCycle: c, NotifyDelay: c / 5},
		}).Makespan
		rows = append(rows, CycleRow{Cycle: c, Makespan: m})
	}
	return rows
}

// --- A6: claim reuse ---

// AblationClaimReuse quantifies the scheduling-path overhead the paper's
// add-on design pays: with HTCondor-style claim leasing (a vacated machine
// immediately takes the next matching pending job, skipping negotiation),
// every stack speeds up; the gap between the two modes is the negotiation
// latency embedded in each configuration's makespan.
func AblationClaimReuse(o Options) []AblationRow {
	o = o.Defaults()
	jobs := o.realJobSet()
	var rows []AblationRow
	for _, p := range Policies() {
		for _, reuse := range []bool{false, true} {
			name := p + " negotiated"
			if reuse {
				name = p + " claim-reuse"
			}
			m := Run(RunConfig{
				Policy: p, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed,
				Condor: condor.Config{ClaimReuse: reuse},
			}).Makespan
			rows = append(rows, AblationRow{Name: name, Makespan: m})
		}
	}
	return rows
}

// --- A5: PCIe transfer contention ---

// TransferRow is one (policy, link bandwidth) point of the transfer
// ablation.
type TransferRow struct {
	Policy        string
	BandwidthMBps float64
	Makespan      units.Tick
}

// transferHeavyJob builds an SGEMM-like job with explicit DMA payloads:
// each offload moves two 8K×8K single-precision operands in (512 MB) and
// the product out (256 MB) across the node link — Fig. 1's in/out clauses
// made explicit rather than folded into the offload duration.
func transferHeavyJob(id int, r *rng.Source) *job.Job {
	j := &job.Job{
		ID:       id,
		Name:     fmt.Sprintf("sgx#%d", id),
		Workload: "sgemm-xfer",
		Mem:      2048,
		Threads:  60,
	}
	j.ActualPeakMem = units.MB(float64(j.Mem) * r.Uniform(0.85, 1.0))
	j.Phases = append(j.Phases, job.Phase{Kind: job.HostPhase, Duration: units.Second})
	k := r.UniformInt(6, 10)
	for i := 0; i < k; i++ {
		j.Phases = append(j.Phases,
			job.Phase{
				Kind: job.OffloadPhase, Duration: 2 * units.Second, Threads: 60,
				TransferIn: 512, TransferOut: 256,
			},
			job.Phase{Kind: job.HostPhase, Duration: 500 * units.Millisecond})
	}
	return j
}

// AblationTransferContention runs A5: a transfer-heavy workload across the
// three stacks at full (6 GB/s) and constrained (1.5 GB/s) node links.
// Sharing multiplies concurrent DMA, so a starved link erodes the sharing
// stacks' advantage — a resource dimension the paper's knapsack does not
// model.
func AblationTransferContention(o Options) []TransferRow {
	o = o.Defaults()
	r := rng.New(o.Seed).Fork("transfer-ablation")
	n := o.SyntheticJobs / 2
	if n < 50 {
		n = 50
	}
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = transferHeavyJob(i, r)
	}
	var rows []TransferRow
	for _, bw := range []float64{phi.DefaultLinkBandwidthMBps, 1500} {
		for _, p := range Policies() {
			m := Run(RunConfig{
				Policy: p, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed,
				LinkBandwidthMBps: bw,
			}).Makespan
			rows = append(rows, TransferRow{Policy: p, BandwidthMBps: bw, Makespan: m})
		}
	}
	return rows
}

// --- A4: dispatch-discipline ablation ---

// AblationDispatchDiscipline compares COSMIC's strict arrival-order offload
// dispatch against the work-conserving first-fit bypass, under MCC and
// MCCK on the real mix.
func AblationDispatchDiscipline(o Options) []AblationRow {
	o = o.Defaults()
	jobs := o.realJobSet()
	var rows []AblationRow
	for _, p := range []string{PolicyMCC, PolicyMCCK} {
		for _, bypass := range []bool{false, true} {
			name := p + " fifo"
			if bypass {
				name = p + " first-fit"
			}
			m := Run(RunConfig{
				Policy: p, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed, CosmicBypass: bypass,
			}).Makespan
			rows = append(rows, AblationRow{Name: name, Makespan: m})
		}
	}
	return rows
}
