package experiments

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"phishare/internal/condor"
	"phishare/internal/faults"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/obs"
	"phishare/internal/rng"
)

// TestChaosDisabledPreservesOutcomes is the fault layer's analogue of
// TestObservabilityPreservesOutcomes: a harness with the invariant checker
// armed but no fault profile must leave every policy's job records and
// makespan bit-identical to a bare run. The checker hooks (AfterStep,
// OnTerminal chaining, a consumer of the pool's obs events) observe
// without perturbing.
// The checked run also carries an observer, whose spans must hold no
// matchless attempt.
func TestChaosDisabledPreservesOutcomes(t *testing.T) {
	const seed = 11
	jobs := job.GenerateTableOneSet(90, rng.New(seed))
	for _, policy := range Policies() {
		run := func(h *faults.Harness, o *obs.Observer) (Result, []metrics.JobRecord) {
			var recs []metrics.JobRecord
			res := Run(RunConfig{
				Policy:     policy,
				Nodes:      3,
				Jobs:       jobs,
				Seed:       seed,
				RecordSink: &recs,
				Chaos:      h,
				Obs:        o,
			})
			return res, recs
		}
		bare, bareRecs := run(nil, nil)
		h := &faults.Harness{Check: true, Seed: seed}
		o := obs.New()
		checked, checkedRecs := run(h, o)
		requireMatchedAttempts(t, policy, o)

		if v := h.Finish(); len(v) != 0 {
			t.Fatalf("%s: invariant violations in a fault-free run:\n%v", policy, v)
		}
		if bare.Makespan != checked.Makespan {
			t.Fatalf("%s: checker changed makespan: %v -> %v",
				policy, bare.Makespan, checked.Makespan)
		}
		if !reflect.DeepEqual(bareRecs, checkedRecs) {
			for i := range bareRecs {
				if i < len(checkedRecs) && bareRecs[i] != checkedRecs[i] {
					t.Errorf("%s: record %d differs:\nbare:    %+v\nchecked: %+v",
						policy, i, bareRecs[i], checkedRecs[i])
					break
				}
			}
			t.Fatalf("%s: checked record stream (%d) != bare (%d)",
				policy, len(checkedRecs), len(bareRecs))
		}
		if s := h.InjectorStats(); s != (faults.Stats{}) {
			t.Fatalf("%s: zero profile injected faults: %+v", policy, s)
		}
	}
}

// requireMatchedAttempts fails if the run's spans hold an attempt no
// condor match opened. The span builder keeps machine-less attempts only
// for runner-only streams; in a pool-driven run, clean or under faults,
// every offload must land on a matched attempt.
func requireMatchedAttempts(t *testing.T, policy string, o *obs.Observer) {
	t.Helper()
	spans := obs.SpansFromTrace(o.Trace)
	if len(spans) == 0 {
		t.Fatalf("%s: no spans recorded", policy)
	}
	for _, s := range spans {
		for _, a := range s.Attempts {
			if a.Machine == "" {
				t.Fatalf("%s: job %d has a matchless attempt: %+v", policy, s.Job, a)
			}
		}
	}
}

// TestChaosInjectsFaults asserts the swarm's profiles actually bite: a
// heavy-profile run must record device failures and evictions, and still
// satisfy every invariant.
func TestChaosInjectsFaults(t *testing.T) {
	h := &faults.Harness{Profile: faults.HeavyProfile(), Seed: 3, Check: true}
	o := obs.New()
	Run(RunConfig{
		Policy: PolicyMCC,
		Nodes:  3,
		Jobs:   job.GenerateTableOneSet(18, rng.New(3)),
		Seed:   3,
		Condor: condor.Config{MaxRetries: 4},
		Chaos:  h,
		Obs:    o,
	})
	if v := h.Finish(); len(v) != 0 {
		t.Fatalf("invariant violations under the heavy profile:\n%v", v)
	}
	requireMatchedAttempts(t, PolicyMCC, o)
	s := h.InjectorStats()
	if s.DeviceFailures == 0 && s.NodeLosses == 0 {
		t.Errorf("heavy profile injected no device/node failures: %+v", s)
	}
	if s.Repairs == 0 {
		t.Errorf("heavy profile repaired nothing: %+v", s)
	}
}

// TestInvariantSwarm is the `make chaos` gate: a full seed × policy ×
// profile sweep under the invariant checker must come back clean. The
// sweep width honors CHAOS_SEEDS (default 50, the acceptance floor) and
// shrinks under -short; a failure prints the reproducible
// (seed, profile, policy) triple.
func TestInvariantSwarm(t *testing.T) {
	seeds := 50
	if env := os.Getenv("CHAOS_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_SEEDS=%q", env)
		}
		seeds = n
	} else if testing.Short() {
		seeds = 10
	}
	cfg := ChaosConfig{Seeds: seeds, Logf: t.Logf}
	failures := ChaosSwarm(cfg)
	for _, f := range failures {
		t.Errorf("%s\n  replay: go run ./cmd/phichaos -seeds 1 -seed0 %d -profiles %s -policies %s",
			f, f.Seed, f.Profile, f.Policy)
	}
}

// TestChaosDiffSwarm is the reference-diff half of the `make chaos` gate:
// a seed sweep where every cell replays with the match cache (and with it
// autoclusters) and the sparse knapsack solver force-disabled, and both
// runs' job-record streams must agree bit for bit. Each cell costs two full
// runs (the reference solver is the expensive dense DP), so the sweep is
// narrower than TestInvariantSwarm's.
func TestChaosDiffSwarm(t *testing.T) {
	seeds := 10
	if env := os.Getenv("CHAOS_DIFF_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad CHAOS_DIFF_SEEDS=%q", env)
		}
		seeds = n
	} else if testing.Short() {
		seeds = 3
	}
	cfg := ChaosConfig{Seeds: seeds, DiffReference: true, Logf: t.Logf}
	failures := ChaosSwarm(cfg)
	for _, f := range failures {
		t.Errorf("%s\n  replay: go run ./cmd/phichaos -diff -seeds 1 -seed0 %d -profiles %s -policies %s",
			f, f.Seed, f.Profile, f.Policy)
	}
}

// TestChaosRunReplaysSingleCell pins the replay path the swarm's failure
// message advertises: one (seed, profile, policy) cell runs standalone and
// deterministically.
func TestChaosRunReplaysSingleCell(t *testing.T) {
	cfg := ChaosConfig{}
	a := ChaosRun(cfg, 1, faults.HeavyProfile(), PolicyMCCK)
	b := ChaosRun(cfg, 1, faults.HeavyProfile(), PolicyMCCK)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("replayed cell diverged:\nfirst:  %v\nsecond: %v", a, b)
	}
}
