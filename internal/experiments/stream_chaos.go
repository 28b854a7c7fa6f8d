package experiments

import (
	"fmt"

	"phishare/internal/condor"
	"phishare/internal/faults"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// Streaming chaos: the adversarial half of the streaming-equivalence
// guarantee. The clean-path equivalence tests prove that emit-and-drop
// record processing computes the same aggregates as the retained oracle;
// this leg re-proves it under fault injection, where crash/resubmit churn,
// stall aborts and node loss produce the terminal-transition orders the
// clean runs never see.
//
// The two runs of a cell cannot share an invariant checker — the checker
// audits the retained queue a streaming pool doesn't have — so the retained
// run carries it (Check=true) and the streaming run goes bare. That is
// sound because the injector is driven purely by (profile, seed), and
// TestChaosDisabledPreservesOutcomes already pins the checker itself to be
// outcome-neutral.

// StreamChaosConfig describes a streaming-vs-retained chaos sweep over a
// small faulted diurnal cell.
type StreamChaosConfig struct {
	// Seeds is the number of consecutive seeds swept (default 10).
	Seeds int
	// Seed0 is the first seed (default 1).
	Seed0 int64
	// Policies to sweep (default MC, MCC, MCCK).
	Policies []string
	// Profiles to sweep (default light and heavy).
	Profiles []faults.Profile
	// Jobs per cell (default 60), arriving over Horizon.
	Jobs int
	// Nodes per cell (default 3).
	Nodes int
	// Retries is the crash retry budget (default 4, as in ChaosConfig).
	Retries int
	// Horizon is the diurnal window the arrivals spread over (default 10
	// simulated minutes — one compressed "day" so the rate curve and a
	// couple of bursts are actually exercised).
	Horizon units.Tick
	// Tenants is the tenant population (default 3, so the per-tenant
	// fairness aggregates have something to disagree about).
	Tenants int
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c StreamChaosConfig) withDefaults() StreamChaosConfig {
	if c.Seeds == 0 {
		c.Seeds = 10
	}
	if c.Seed0 == 0 {
		c.Seed0 = 1
	}
	if len(c.Policies) == 0 {
		c.Policies = Policies()
	}
	if len(c.Profiles) == 0 {
		c.Profiles = faults.Profiles()
	}
	if c.Jobs == 0 {
		c.Jobs = 60
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Retries == 0 {
		c.Retries = 4
	}
	if c.Horizon == 0 {
		c.Horizon = 10 * units.Minute
	}
	if c.Tenants == 0 {
		c.Tenants = 3
	}
	return c
}

// source builds one cell's diurnal arrival stream. Called once per run —
// sources are single-pass — with identical output for identical (c, seed).
func (c StreamChaosConfig) source(seed int64) workload.Source {
	return workload.NewDiurnal(workload.DiurnalConfig{
		N:          c.Jobs,
		Seed:       seed,
		Day:        c.Horizon,
		Horizon:    c.Horizon,
		BurstCount: 2,
		Tenants:    c.Tenants,
	})
}

// StreamChaosCell runs one (seed, profile, policy) faulted diurnal cell
// twice — retained under the invariant checker, then streaming — and
// returns the checker's violations plus any divergence between the two
// runs' aggregates. Nil means the cell is clean and the modes agree.
func StreamChaosCell(c StreamChaosConfig, seed int64, prof faults.Profile, policy string) []string {
	c = c.withDefaults()
	run := func(stream bool) (Result, []string) {
		h := &faults.Harness{Profile: prof, Seed: seed, Check: !stream}
		res := Run(RunConfig{
			Policy: policy,
			Nodes:  c.Nodes,
			Source: c.source(seed),
			Seed:   seed,
			Condor: condor.Config{MaxRetries: c.Retries},
			Chaos:  h,
			Stream: stream,
		})
		return res, h.Finish()
	}
	retained, violations := run(false)
	streamed, _ := run(true)

	if streamed.Makespan != retained.Makespan {
		violations = append(violations, fmt.Sprintf(
			"diff: streaming makespan %v != retained %v", streamed.Makespan, retained.Makespan))
	}
	if streamed.Utilization != retained.Utilization {
		violations = append(violations, fmt.Sprintf(
			"diff: streaming utilization %v != retained %v", streamed.Utilization, retained.Utilization))
	}
	if streamed.Summary != retained.Summary {
		violations = append(violations, fmt.Sprintf(
			"diff: streaming summary %+v != retained %+v", streamed.Summary, retained.Summary))
	}
	if streamed.Stream != retained.Stream {
		violations = append(violations, fmt.Sprintf(
			"diff: streaming aggregates %+v != retained %+v", streamed.Stream, retained.Stream))
	}
	return violations
}

// StreamChaosSwarm sweeps the seed × profile × policy grid through
// StreamChaosCell and returns every failure, panics included.
func StreamChaosSwarm(c StreamChaosConfig) []ChaosFailure {
	c = c.withDefaults()
	return sweep("stream-chaos", c.Seeds, c.Seed0, c.Profiles, c.Policies, c.Logf,
		func(seed int64, prof faults.Profile, policy string) []string {
			return StreamChaosCell(c, seed, prof, policy)
		})
}
