package experiments

import (
	"fmt"
	"io"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/rng"
	"phishare/internal/sim"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// E9 — dynamic arrivals. The paper's scheduler is static ("applies to a set
// of jobs waiting to execute... the set could represent a snapshot in a
// dynamic scenario") and its Limitations section notes the approach "can
// also be used in a dynamic context, but that is outside the scope of this
// work". This extension exercises exactly that: jobs arrive as a Poisson
// process and the schedulers run continuously on the evolving queue. With
// arrivals, the interesting metric shifts from makespan to response time —
// how long a job waits plus runs — at a given offered load.

// DynamicConfig parameterizes the arrival experiment.
type DynamicConfig struct {
	// Loads are the offered loads to sweep, each as a fraction of the
	// MC-stack service capacity (jobs' mean sequential time / devices).
	// Values above ~1 saturate the exclusive baseline. Default
	// {0.5, 0.8, 1.1, 1.4}: the sweep exposes the crossover where sharing
	// starts to pay — at light load a dedicated device answers fastest; as
	// the queue builds, the sharing stacks' extra throughput wins.
	Loads []float64
	// Jobs is the number of arrivals to simulate per load. Default
	// SyntheticJobs.
	Jobs int
}

// DynamicRow is one (load, policy) point.
type DynamicRow struct {
	Load         float64
	Policy       string
	MeanResponse units.Tick // completion − arrival
	P95Response  units.Tick
	MeanWait     units.Tick // first dispatch − arrival
	Utilization  float64
	Completed    int
}

// Dynamic runs E9: per load, the same Poisson arrival sequence (identical
// jobs and arrival times) through MC, MCC and MCCK.
func Dynamic(o Options, dc DynamicConfig) []DynamicRow {
	o = o.Defaults()
	if len(dc.Loads) == 0 {
		dc.Loads = []float64{0.5, 0.8, 1.1, 1.4}
	}
	if dc.Jobs == 0 {
		dc.Jobs = o.SyntheticJobs
	}

	jobs := workload.Generate(workload.Config{Dist: workload.Normal, N: dc.Jobs, Seed: o.Seed})
	// Offered load λ·E[S] = Load·devices, with E[S] the mean sequential
	// service time: the exclusive stack's capacity is one job per device.
	meanService := float64(job.TotalSequentialTime(jobs)) / float64(len(jobs))

	var rows []DynamicRow
	for _, load := range dc.Loads {
		if load <= 0 {
			panic("experiments: non-positive load")
		}
		meanGap := meanService / (load * float64(o.Nodes))
		arrivals := make([]units.Tick, len(jobs))
		ar := rng.New(o.Seed).Fork("arrivals")
		t := 0.0
		for i := range arrivals {
			arrivals[i] = units.Tick(t)
			t += ar.Exp(meanGap)
		}
		for _, policy := range Policies() {
			row := runDynamic(o, policy, jobs, arrivals)
			row.Load = load
			rows = append(rows, row)
		}
	}
	return rows
}

func runDynamic(o Options, policy string, jobs []*job.Job, arrivals []units.Tick) DynamicRow {
	cfg := RunConfig{Policy: policy, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed}
	eng := sim.New()
	eng.MaxSteps = 500_000_000
	clu := cluster.New(eng, cluster.Config{
		Nodes:     o.Nodes,
		UseCosmic: cfg.usesCosmic(),
		Seed:      o.Seed,
	})
	pool := condor.NewPool(eng, clu, cfg.buildPolicy(), cfg.Condor)
	for i, j := range jobs {
		j := j
		eng.At(arrivals[i], func() { pool.Submit([]*job.Job{j}) })
	}
	eng.Run()
	if !pool.Done() {
		panic("experiments: dynamic run left jobs outstanding")
	}

	recs := pool.Records()
	responses := make([]units.Tick, 0, len(recs))
	var respSum, waitSum int64
	completed := 0
	for _, r := range recs {
		if !r.Completed {
			continue
		}
		completed++
		resp := r.EndTime - r.SubmitTime
		responses = append(responses, resp)
		respSum += int64(resp)
		waitSum += int64(r.WaitTime())
	}
	row := DynamicRow{Policy: policy, Completed: completed}
	if completed > 0 {
		row.MeanResponse = units.Tick(respSum / int64(completed))
		row.MeanWait = units.Tick(waitSum / int64(completed))
		row.P95Response = metrics.Percentile(responses, 95)
	}
	row.Utilization = clu.AvgCoreUtilization(pool.Makespan())
	return row
}

// WriteDynamic renders E9.
func WriteDynamic(w io.Writer, rows []DynamicRow) {
	fmt.Fprintf(w, "== E9: dynamic Poisson arrivals (normal dist; extension of the static formulation) ==\n")
	fmt.Fprintf(w, "%-6s %-6s %12s %12s %10s %6s %10s\n", "load", "config", "mean resp", "p95 resp", "mean wait", "done", "util")
	lastLoad := -1.0
	for _, r := range rows {
		if r.Load != lastLoad && lastLoad >= 0 {
			fmt.Fprintln(w)
		}
		lastLoad = r.Load
		fmt.Fprintf(w, "%-6.2f %-6s %11.1fs %11.1fs %9.1fs %6d %9.1f%%\n",
			r.Load, r.Policy, r.MeanResponse.Seconds(), r.P95Response.Seconds(),
			r.MeanWait.Seconds(), r.Completed, r.Utilization*100)
	}
	fmt.Fprintf(w, "(at light load a dedicated device answers fastest; past MC's saturation\n")
	fmt.Fprintf(w, " point the sharing stacks' extra throughput takes over — the dynamic\n")
	fmt.Fprintf(w, " scenario the paper's Limitations section anticipates)\n\n")
}
