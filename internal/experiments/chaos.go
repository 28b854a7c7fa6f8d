package experiments

import (
	"fmt"
	"reflect"

	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/faults"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/rng"
)

// ChaosConfig describes one invariant swarm: Seeds consecutive seeds
// starting at Seed0, each run through every policy × fault profile under
// the invariant checker. The (seed, profile, policy) triple printed for a
// failure is a complete reproduction recipe given the same ChaosConfig
// workload parameters (Jobs, Nodes, Retries) — ChaosRun replays one triple.
type ChaosConfig struct {
	// Seeds is the number of seeds swept (default 50).
	Seeds int
	// Seed0 is the first seed (default 1).
	Seed0 int64
	// Policies to sweep (default MC, MCC, MCCK).
	Policies []string
	// Profiles to sweep (default the built-in light and heavy profiles).
	Profiles []faults.Profile
	// Jobs is the Table I workload size per run (default 18).
	Jobs int
	// Nodes is the cluster size per run (default 3: small enough that
	// faults bite, large enough that the cluster can route around them).
	Nodes int
	// Retries is the crash retry budget (default 4; chaos runs need
	// headroom for injected crashes, or every fault cascades into a
	// Failed job and nothing exercises the resubmit path).
	Retries int
	// DiffReference makes every cell run twice — once on the optimized
	// fast paths, once with the match cache (and with it autoclusters) and
	// the sparse knapsack solver force-disabled — and diffs the runs'
	// summary metrics and full per-job record streams bit for bit. Any
	// divergence is reported as a violation: under fault injection the
	// caches see invalidation orders that the clean-path equivalence tests
	// never produce, so this is the adversarial version of those
	// guarantees.
	DiffReference bool
	// Logf, if non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Seeds == 0 {
		c.Seeds = 50
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
		c.Jobs = 18
	}
	if c.Nodes == 0 {
		c.Nodes = 3
	}
	if c.Retries == 0 {
		c.Retries = 4
	}
	return c
}

// ChaosFailure is one failed run of the swarm.
type ChaosFailure struct {
	Seed       int64
	Profile    string
	Policy     string
	Violations []string
	// Panic carries a recovered run panic (e.g. a drained engine with jobs
	// outstanding), which the swarm reports as a failure rather than dying.
	Panic string
}

func (f ChaosFailure) String() string {
	s := fmt.Sprintf("FAIL seed=%d profile=%s policy=%s", f.Seed, f.Profile, f.Policy)
	if f.Panic != "" {
		s += fmt.Sprintf("\n  panic: %s", f.Panic)
	}
	for _, v := range f.Violations {
		s += "\n  " + v
	}
	return s
}

// ChaosRun executes one (seed, profile, policy) cell under the invariant
// checker and returns its violations (nil when clean). With
// c.DiffReference set it also replays the cell on the reference scheduler
// paths and reports any outcome divergence. Panics propagate to the caller.
func ChaosRun(c ChaosConfig, seed int64, prof faults.Profile, policy string) []string {
	c = c.withDefaults()
	res, records, violations := chaosCell(c, seed, prof, policy, false)
	if !c.DiffReference {
		return violations
	}
	refRes, refRecords, refViolations := chaosCell(c, seed, prof, policy, true)
	violations = append(violations, refViolations...)
	return append(violations, diffOutcomes(res, records, refRes, refRecords)...)
}

// chaosCell runs one swarm cell under a fresh fault harness — on the
// optimized configuration or the reference-path configuration — and returns
// the run outcome plus the harness's invariant violations. Both
// configurations see the identical injection schedule: the injector is
// driven purely by (profile, seed).
func chaosCell(c ChaosConfig, seed int64, prof faults.Profile, policy string, reference bool) (Result, []metrics.JobRecord, []string) {
	h := &faults.Harness{Profile: prof, Seed: seed, Check: true}
	cfg := RunConfig{
		Policy: policy,
		Nodes:  c.Nodes,
		Jobs:   job.GenerateTableOneSet(c.Jobs, rng.New(seed).Fork("tableI")),
		Seed:   seed,
		Condor: condor.Config{MaxRetries: c.Retries},
		Chaos:  h,
	}
	if reference {
		cfg.Condor.DisableMatchCache = true
		cfg.Core = core.Config{ReferenceSolver: true}
	}
	var records []metrics.JobRecord
	cfg.RecordSink = &records
	res := Run(cfg)
	violations := h.Finish()
	if reference {
		for i, v := range violations {
			violations[i] = "reference path: " + v
		}
	}
	return res, records, violations
}

// diffOutcomes compares an optimized run against its reference-path replay
// and describes every observable divergence. The record streams must match
// bit for bit — same jobs, same states, same timestamps, same placements.
func diffOutcomes(res Result, records []metrics.JobRecord, refRes Result, refRecords []metrics.JobRecord) []string {
	var diffs []string
	if res.Makespan != refRes.Makespan {
		diffs = append(diffs, fmt.Sprintf("diff: makespan %v != reference %v", res.Makespan, refRes.Makespan))
	}
	if res.Utilization != refRes.Utilization {
		diffs = append(diffs, fmt.Sprintf("diff: utilization %v != reference %v", res.Utilization, refRes.Utilization))
	}
	if res.MaxConcurrency != refRes.MaxConcurrency {
		diffs = append(diffs, fmt.Sprintf("diff: max concurrency %d != reference %d", res.MaxConcurrency, refRes.MaxConcurrency))
	}
	if res.Summary != refRes.Summary {
		diffs = append(diffs, fmt.Sprintf("diff: summary %+v != reference %+v", res.Summary, refRes.Summary))
	}
	if len(records) != len(refRecords) {
		return append(diffs, fmt.Sprintf("diff: %d job records != reference %d", len(records), len(refRecords)))
	}
	for i := range records {
		if !reflect.DeepEqual(records[i], refRecords[i]) {
			diffs = append(diffs, fmt.Sprintf("diff: record %d: %+v != reference %+v", i, records[i], refRecords[i]))
			break // the first divergence is the reproduction recipe; the rest is noise
		}
	}
	return diffs
}

// ChaosSwarm sweeps the full seed × profile × policy grid through ChaosRun
// and returns every failure.
func ChaosSwarm(c ChaosConfig) []ChaosFailure {
	c = c.withDefaults()
	return sweep("chaos", c.Seeds, c.Seed0, c.Profiles, c.Policies, c.Logf,
		func(seed int64, prof faults.Profile, policy string) []string {
			return ChaosRun(c, seed, prof, policy)
		})
}

// chaosCellFunc runs one (seed, profile, policy) cell of a chaos sweep and
// returns its violations (nil when clean).
type chaosCellFunc func(seed int64, prof faults.Profile, policy string) []string

// sweep runs cell over the seeds × profiles × policies grid and returns
// every failure. Runs are sequential and deterministic: the same grid
// always produces the same failures in the same order. name labels the
// progress lines sent to logf (nil for none).
func sweep(name string, seeds int, seed0 int64, profiles []faults.Profile, policies []string,
	logf func(format string, args ...any), cell chaosCellFunc) []ChaosFailure {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var failures []ChaosFailure
	runs := 0
	for i := 0; i < seeds; i++ {
		seed := seed0 + int64(i)
		for _, prof := range profiles {
			for _, policy := range policies {
				runs++
				violations, panicMsg := cellSafe(cell, seed, prof, policy)
				if len(violations) > 0 || panicMsg != "" {
					f := ChaosFailure{Seed: seed, Profile: prof.Name, Policy: policy,
						Violations: violations, Panic: panicMsg}
					failures = append(failures, f)
					logf("%s", f)
				}
			}
		}
		if (i+1)%10 == 0 {
			logf("%s: %d/%d seeds swept, %d runs, %d failures",
				name, i+1, seeds, runs, len(failures))
		}
	}
	logf("%s: done — %d runs, %d failures", name, runs, len(failures))
	return failures
}

// cellSafe runs one cell with panic capture, so one broken cell fails its
// triple instead of killing the whole sweep.
func cellSafe(cell chaosCellFunc, seed int64, prof faults.Profile, policy string) (violations []string, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	return cell(seed, prof, policy), ""
}
