package main

import (
	"fmt"
	"io"

	"phishare/internal/experiments"
	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/phi"
	"phishare/internal/rng"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// pinSeed is the seed at which every cell's outcome digest is pinned.
const pinSeed = 11

// cell is one benchmark workload: a simulation configuration the
// benchmark runs closed-loop, one simulation at a time.
type cell struct {
	name        string
	policy      string
	nodes, jobs int
	// sets is the number of Table I job sets drawn from one generator
	// stream and run round-robin. Per-job costs of a 200-job set depend on
	// the draw by several percent; averaging over many draws keeps them
	// from hinging on the seed.
	sets int
	// diurnal draws the jobs from a one-day diurnal Source over a
	// heterogeneous pool in streaming mode; otherwise Table I jobs are
	// queued at t=0 on single-device nodes.
	diurnal bool
	// obs attaches a fresh observer to every run and exports its metrics
	// and events after the run, inside the timed interval.
	obs bool
	// oracle adds one untimed run of the first set on the reference paths
	// (no match cache, reference knapsack solver), which must reproduce its
	// digest.
	oracle bool

	// warmups is the number of unmeasured runs in one set-up, setups the
	// number of set-ups whose median is setup_s; minRuns and traceRuns are
	// the floors on measured runs, untraced and traced, whatever the time
	// budget. 1,000 runs leave ten beyond the p99.
	warmups, setups, minRuns, traceRuns int

	// pin is the outcome of the first input set at pinSeed.
	pin *digest
}

// paperPin is the outcome of the paper's testbed cell, with or without
// obs attached: its makespan is BenchmarkEndToEndMCCK's 516.3 s.
var paperPin = &digest{Makespan: 516_279, Completed: 200, Negotiations: 85, MeanWait: 178_356, MeanTurnaround: 224_906}

// cells lists the workloads in report order.
var cells = []*cell{
	// The paper's 8-node testbed cell, the unit of every table and figure
	// sweep: classad, core and knapsack carry the cost.
	{
		name:   "paper-mcck",
		policy: experiments.PolicyMCCK, nodes: 8, jobs: 200, sets: 64,
		oracle:  true,
		warmups: 20, setups: 3, minRuns: 1000, traceRuns: 300,
		pin: paperPin,
	},
	// The same simulations with the obs layer attached: the difference to
	// paper-mcck is the obs layer and the collections it causes.
	{
		name:   "paper-mcck-obs",
		policy: experiments.PolicyMCCK, nodes: 8, jobs: 200, sets: 64,
		obs:     true,
		warmups: 20, setups: 3, minRuns: 1000, traceRuns: 300,
		pin: paperPin,
	},
	// BigCell at a fifth of its scale: condor negotiation over a deep queue
	// dominates, and MCC bypasses the core and knapsack code.
	{
		name:   "deep-queue",
		policy: experiments.PolicyMCC, nodes: 200, jobs: 20_000, sets: 1,
		warmups: 1, setups: 3, minRuns: 3, traceRuns: 2,
		pin: &digest{Makespan: 2_387_510, Completed: 20_000, Negotiations: 1059, MeanWait: 1_107_283, MeanTurnaround: 1_197_264},
	},
	// BenchmarkMillionJob's 100k-job day: arrivals trickle in and keep the
	// queue shallow, so the event core, the lanes, the generator and the
	// streaming metrics carry the cost.
	{
		name:   "diurnal-stream",
		policy: experiments.PolicyMCC, nodes: 1000, jobs: 100_000, sets: 1, diurnal: true,
		warmups: 1, setups: 3, minRuns: 3, traceRuns: 2,
		pin: &digest{Makespan: 74_880_560, Completed: 100_000, Negotiations: 25_945, MeanWait: 2262, MeanTurnaround: 30_437},
	},
}

// cellByName finds a workload.
func cellByName(name string) (*cell, error) {
	for _, c := range cells {
		if c.name == name {
			return c, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs is one generated input of a cell.
type inputs struct {
	sets    [][]*job.Job
	devices []phi.Config
}

// generate builds the cell's inputs from seed. Table I sets are drawn the
// way BenchmarkEndToEndMCCK draws its set, so at seed 11 the first set is
// that benchmark's; later sets continue the same stream.
func (c *cell) generate(seed int64) inputs {
	if c.diurnal {
		return inputs{devices: workload.HeterogeneousPool(seed, c.nodes, nil)}
	}
	r := rng.New(seed).Fork("tableI")
	sets := make([][]*job.Job, c.sets)
	for i := range sets {
		sets[i] = job.GenerateTableOneSet(c.jobs, r)
	}
	return inputs{sets: sets}
}

// config builds the configuration of the cell's i-th run. A diurnal source
// is consumed by the run, so every run gets a fresh one.
func (c *cell) config(in inputs, seed int64, i int) experiments.RunConfig {
	cfg := experiments.RunConfig{Policy: c.policy, Nodes: c.nodes, Seed: seed}
	if c.diurnal {
		cfg.Source = c.source(seed)
		cfg.NodeDevices = in.devices
		cfg.Stream = true
	} else {
		cfg.Jobs = in.sets[i%c.sets]
	}
	if c.obs {
		cfg.Obs = obs.New()
	}
	return cfg
}

// source is a diurnal cell's arrival stream: one simulated day in six
// bursts from 1,000 Zipf-skewed tenants.
func (c *cell) source(seed int64) *workload.Diurnal {
	return workload.NewDiurnal(workload.DiurnalConfig{N: c.jobs, Seed: seed, BurstCount: 6, Tenants: 1000})
}

// runOnce executes one simulation and, when an observer is attached,
// exports its metrics and events. A panic is returned as an error.
func runOnce(cfg experiments.RunConfig) (res experiments.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v", r)
		}
	}()
	res = experiments.Run(cfg)
	if cfg.Obs != nil {
		if err := cfg.Obs.WriteMetrics(io.Discard); err != nil {
			return res, fmt.Errorf("write metrics: %w", err)
		}
		if err := cfg.Obs.WriteEvents(io.Discard); err != nil {
			return res, fmt.Errorf("write events: %w", err)
		}
	}
	return res, nil
}

// digest is the simulated outcome of one run that every run of the same
// input must reproduce exactly.
type digest struct {
	Makespan                   units.Tick
	Completed, Failed, Crashes int
	Negotiations               int
	MeanWait, MeanTurnaround   units.Tick
}

func digestOf(res experiments.Result) digest {
	s := res.Summary
	return digest{
		Makespan: res.Makespan, Completed: s.Completed, Failed: s.Failed, Crashes: s.Crashes,
		Negotiations: res.PoolStats.Negotiations, MeanWait: s.MeanWait, MeanTurnaround: s.MeanTurnaround,
	}
}

func (d digest) String() string {
	return fmt.Sprintf("makespan=%.3fs completed=%d failed=%d crashes=%d negotiations=%d mean_wait=%.3fs mean_turnaround=%.3fs",
		d.Makespan.Seconds(), d.Completed, d.Failed, d.Crashes, d.Negotiations,
		d.MeanWait.Seconds(), d.MeanTurnaround.Seconds())
}

// checker judges every run of one invocation against its input set's
// digest: the pin for the first set at pinSeed, otherwise the set's first
// outcome.
type checker struct {
	c         *cell
	want      []*digest // by input set
	attempted int
	failed    int
	firstErr  error
}

func newChecker(c *cell, seed int64) *checker {
	k := &checker{c: c, want: make([]*digest, c.sets)}
	if seed == pinSeed {
		k.want[0] = c.pin
	}
	return k
}

// check records the verdict on the cell's i-th run.
func (k *checker) check(i int, res experiments.Result, err error) {
	k.attempted++
	if err == nil {
		err = k.verify(i%k.c.sets, res)
	}
	if err != nil {
		k.failed++
		if k.firstErr == nil {
			k.firstErr = err
		}
	}
}

func (k *checker) verify(set int, res experiments.Result) error {
	d := digestOf(res)
	if res.JobCount != k.c.jobs || d.Completed != k.c.jobs || d.Failed != 0 {
		return fmt.Errorf("%s: %d of %d jobs completed, %d failed", k.c.name, d.Completed, k.c.jobs, d.Failed)
	}
	if k.want[set] == nil {
		k.want[set] = &d
		return nil
	}
	if d != *k.want[set] {
		return fmt.Errorf("%s: input set %d: outcome %v, want %v", k.c.name, set, d, *k.want[set])
	}
	return nil
}
