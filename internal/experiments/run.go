// Package experiments defines one driver per table and figure in the
// paper's evaluation (§III motivation, Table II, Table III, Figs. 7–10)
// plus the ablations called out in DESIGN.md. Each driver builds fresh
// simulation state from a seed, so every artifact is exactly reproducible.
package experiments

import (
	"fmt"
	"runtime"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/faults"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/obs"
	"phishare/internal/phi"
	"phishare/internal/rng"
	"phishare/internal/scheduler"
	"phishare/internal/sim"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// Policy names accepted by RunConfig.
const (
	PolicyMC       = "MC"
	PolicyMCC      = "MCC"
	PolicyMCCK     = "MCCK"
	PolicyAgnostic = "Agnostic"
)

// Policies lists the paper's three compared configurations in Table II
// order.
func Policies() []string { return []string{PolicyMC, PolicyMCC, PolicyMCCK} }

// RunConfig describes one simulation run.
type RunConfig struct {
	// Policy is one of the Policy* constants.
	Policy string
	// Nodes is the cluster size; DevicesPerNode defaults to 1 (the paper's
	// testbed).
	Nodes          int
	DevicesPerNode int
	// Jobs is the workload, submitted at t=0.
	Jobs []*job.Job
	// Source, when non-nil, replaces Jobs: arrivals are pulled lazily and
	// submitted (per-tenant, via SubmitAs) by a single self-rearming
	// generator timer at their arrival times, so neither the job set nor
	// its submit events are ever materialized in bulk. Exactly one of Jobs
	// and Source must be set.
	Source workload.Source
	// Seed drives scheduler and device randomness (workload randomness is
	// baked into Jobs by its generator).
	Seed int64
	// Condor tunes the pool mechanics; zero values take defaults.
	Condor condor.Config
	// NodeDevices makes the pool heterogeneous (see
	// cluster.Config.NodeDevices); empty keeps the homogeneous default.
	NodeDevices []phi.Config
	// Core tunes the MCCK scheduler; ignored by other policies.
	Core core.Config
	// ForceCosmic overrides the per-policy COSMIC default: MC and Agnostic
	// run raw MPSS, MCC and MCCK run with COSMIC. (The oversubscription
	// ablation pairs sharing policies with raw devices.)
	ForceCosmic *bool
	// CosmicBypass selects first-fit offload dispatch (ablation A4).
	CosmicBypass bool
	// LinkBandwidthMBps overrides the per-node PCIe bandwidth (ablation
	// A5); 0 takes the 6 GB/s default.
	LinkBandwidthMBps float64
	// MaxSteps bounds the event count as a runaway guard; 0 means 500M.
	MaxSteps uint64
	// Trace, if non-nil, observes every device's offload lifecycle (job
	// names are unique within a run, so one recorder can serve the whole
	// cluster for CSV/JSON export).
	Trace phi.TraceSink
	// Stream switches the run to emit-and-drop record processing: terminal
	// job records are folded into online aggregates (Result.Stream) the
	// moment they happen and then released, so resident memory is O(active
	// jobs) instead of O(total jobs). Retained mode computes the same
	// aggregates post-hoc from the full record set — bit-identically, the
	// equivalence the streaming tests enforce.
	Stream bool
	// MemProbeEvery, when positive, samples the live heap
	// (runtime.ReadMemStats after a forced GC) every that-many terminal
	// records plus once at run end, recording the high-water mark in
	// Result.Stream.PeakHeapBytes. Purely observational.
	MemProbeEvery int
	// RecordSink, if non-nil, receives the full per-job record stream of
	// the run (pool.Records(); in streaming mode, the emitted records in
	// completion order). Determinism harnesses use it to compare entire
	// outcome streams, not just aggregate metrics. Note that pointing it at
	// a streaming run reintroduces the O(total jobs) retention Stream
	// exists to avoid — small-cell equivalence tests only.
	RecordSink *[]metrics.JobRecord
	// Obs, if non-nil, attaches the observability layer to every component
	// (pool, policy, devices, COSMIC managers) and runs the time-series
	// sampler for the whole simulation. Outcome-neutral by construction;
	// TestObservabilityPreservesOutcomes proves it.
	Obs *obs.Observer
	// EventLog, if non-nil, receives the pool's job lifecycle events
	// (HTCondor's user log; see condor.EventLog).
	EventLog *condor.EventLog
	// Chaos, if non-nil, wires the fault-injection and invariant layer into
	// the run (see faults.Harness). A harness with a zero Profile and
	// Check=false is equivalent to nil; with Check=true but no faults the
	// run's outcomes stay bit-identical to an unchecked run
	// (TestChaosDisabledPreservesOutcomes).
	Chaos *faults.Harness
}

// usesCosmic resolves the node middleware choice.
func (c RunConfig) usesCosmic() bool {
	if c.ForceCosmic != nil {
		return *c.ForceCosmic
	}
	switch c.Policy {
	case PolicyMCC, PolicyMCCK:
		return true
	}
	return false
}

// buildPolicy constructs the condor.Policy for the run.
func (c RunConfig) buildPolicy() condor.Policy {
	r := rng.New(c.Seed).Fork("policy-" + c.Policy)
	switch c.Policy {
	case PolicyMC:
		return scheduler.NewExclusive()
	case PolicyMCC:
		return scheduler.NewRandomPack(r)
	case PolicyMCCK:
		return core.New(c.Core)
	case PolicyAgnostic:
		return scheduler.NewAgnostic(r)
	}
	panic(fmt.Sprintf("experiments: unknown policy %q", c.Policy))
}

// Result summarizes one run.
type Result struct {
	Policy         string
	Nodes          int
	JobCount       int
	Makespan       units.Tick
	Utilization    float64 // mean core utilization over the makespan
	MaxConcurrency int
	Summary        metrics.Summary
	PoolStats      condor.Stats
	// Stream holds the scale-era online aggregates (per-tenant fairness,
	// stretch, footprint high-water marks). Populated in both record modes
	// — retained runs derive it from the same records post-hoc — so a
	// streaming run and its retained twin are directly comparable.
	Stream metrics.StreamStats
}

// Run executes one simulation and returns its measurements.
func Run(cfg RunConfig) Result {
	if cfg.Nodes <= 0 {
		panic("experiments: Nodes must be positive")
	}
	if len(cfg.Jobs) == 0 && cfg.Source == nil {
		panic("experiments: empty job set")
	}
	if len(cfg.Jobs) > 0 && cfg.Source != nil {
		panic("experiments: both Jobs and Source set")
	}
	eng := sim.New()
	eng.MaxSteps = cfg.MaxSteps
	if eng.MaxSteps == 0 {
		eng.MaxSteps = 500_000_000
	}
	clu := cluster.New(eng, cluster.Config{
		Nodes:             cfg.Nodes,
		DevicesPerNode:    cfg.DevicesPerNode,
		NodeDevices:       cfg.NodeDevices,
		UseCosmic:         cfg.usesCosmic(),
		CosmicBypass:      cfg.CosmicBypass,
		LinkBandwidthMBps: cfg.LinkBandwidthMBps,
		Seed:              cfg.Seed,
	})
	if cfg.Trace != nil {
		for _, u := range clu.Units {
			u.Device.Trace = cfg.Trace
		}
	}
	pol := cfg.buildPolicy()
	pool := condor.NewPool(eng, clu, pol, cfg.Condor)
	pool.Log = cfg.EventLog
	// The online aggregate. In streaming mode the pool's record sink feeds
	// it as jobs retire; in retained mode the post-run record walk does.
	// Either way the same Add calls run over the same records, which is
	// what makes the two modes bit-identical.
	var agg metrics.Aggregate
	if cfg.Stream {
		pool.SetRecordSink(func(r metrics.JobRecord) {
			agg.Add(r)
			if cfg.RecordSink != nil {
				*cfg.RecordSink = append(*cfg.RecordSink, r)
			}
		})
	}
	var probe *memProbe
	if cfg.MemProbeEvery > 0 {
		probe = &memProbe{every: cfg.MemProbeEvery}
		// Installed before Chaos.Wire, which chains any existing hook.
		pool.OnTerminal = func(*condor.QueuedJob) { probe.note() }
	}
	if cfg.Obs != nil {
		wireObservability(cfg.Obs, eng, pool, pol, clu)
	}
	if cfg.Chaos != nil {
		cfg.Chaos.Obs = cfg.Obs
		cfg.Chaos.Wire(eng, clu, pool)
	}
	jobCount := len(cfg.Jobs)
	if cfg.Source != nil {
		jobCount = cfg.Source.Len()
		startPump(eng, pool, cfg.Source)
	} else {
		pool.Submit(cfg.Jobs)
	}
	eng.Run()
	if !pool.Done() {
		panic("experiments: engine drained with jobs outstanding")
	}

	makespan := pool.Makespan()
	if !cfg.Stream {
		records := pool.Records()
		if cfg.RecordSink != nil {
			*cfg.RecordSink = records
		}
		for _, r := range records {
			agg.Add(r)
		}
	}
	summary := agg.Summary(clu.Utils(), makespan)
	summary.MaxConcurrency = pool.MaxConcurrency()
	stream := agg.Stats(clu.Utils(), makespan)
	stream.Summary = summary
	stream.PeakPending = pool.PeakPending()
	stream.PeakInFlight = pool.PeakInFlight()
	if probe != nil {
		probe.sample()
		stream.PeakHeapBytes = probe.peak
	}
	return Result{
		Policy:         cfg.Policy,
		Nodes:          cfg.Nodes,
		JobCount:       jobCount,
		Makespan:       makespan,
		Utilization:    summary.AvgUtilization,
		MaxConcurrency: summary.MaxConcurrency,
		Summary:        summary,
		PoolStats:      pool.Stats(),
		Stream:         stream,
	}
}

// startPump wires a Source into the pool through one self-rearming
// generator event: at each firing it submits every arrival due now and
// re-arms itself for the next arrival time. Exactly one generator event is
// resident in the heap at any moment — versus one pre-scheduled submit
// event per job, the O(total jobs) heap the streaming engine retires.
func startPump(eng *sim.Engine, pool *condor.Pool, src workload.Source) {
	next, ok := src.Next()
	if !ok {
		panic("experiments: empty source")
	}
	var buf [1]*job.Job
	var pump func()
	pump = func() {
		now := eng.Now()
		for ok && next.At <= now {
			buf[0] = next.Job
			pool.SubmitAs(next.Tenant, buf[:], 0)
			next, ok = src.Next()
		}
		if ok {
			eng.At(next.At, pump)
		}
	}
	eng.At(next.At, pump)
}

// memProbe tracks the live-heap high-water mark. note is cheap (an integer
// countdown) except every `every`-th call, when it forces a GC and reads
// MemStats so the sample reflects live data rather than collector timing.
// Observational only: nothing in the simulation reads it.
type memProbe struct {
	every int
	n     int
	peak  uint64
}

func (m *memProbe) note() {
	m.n++
	if m.n%m.every != 0 {
		return
	}
	m.sample()
}

func (m *memProbe) sample() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > m.peak {
		m.peak = ms.HeapAlloc
	}
}

// Footprint finds the smallest cluster size (in [1, maxNodes]) whose
// makespan under cfg's policy does not exceed target — the paper's
// footprint metric: "the cluster size required to achieve the same makespan
// as the baseline on an 8-node cluster" (Table II/III). Returns (0, false)
// if even maxNodes misses the target.
func Footprint(cfg RunConfig, target units.Tick, maxNodes int) (int, bool) {
	for n := 1; n <= maxNodes; n++ {
		c := cfg
		c.Nodes = n
		if Run(c).Makespan <= target {
			return n, true
		}
	}
	return 0, false
}
