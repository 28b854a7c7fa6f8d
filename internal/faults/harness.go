package faults

import (
	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/obs"
	"phishare/internal/sim"
)

// Harness bundles the fault layer's wiring for one run: an optional
// Injector (Profile) and an optional invariant Checker (Check). The zero
// Harness wires nothing; experiments.RunConfig.Chaos carries one into a run.
type Harness struct {
	// Profile selects the injected faults; the zero profile injects none.
	Profile Profile
	// Seed drives the injector's random draws. Keep it equal to the run
	// seed so a failing (seed, profile, policy) triple is self-contained.
	Seed int64
	// Check installs the invariant checker on the engine's AfterStep hook.
	Check bool
	// Obs, if non-nil, is the run's observer: it receives fault trace
	// events (layer "faults") and feeds the checker the pool's events.
	// experiments.Run copies its RunConfig.Obs here.
	Obs *obs.Observer

	inj *Injector
	chk *Checker
}

// Wire installs the harness on a freshly assembled stack, before job
// submission. With Check set it attaches the checker to eng.AfterStep,
// chains the pool's OnTerminal for exactly-once accounting, and registers
// the checker as a consumer of the pool's condor events for the lifecycle
// and fair-share audits: on Obs, which must then be the pool's observer
// (experiments.Run wires both), or else on a private observer that retains
// nothing. With an enabled Profile it builds and starts the Injector. All
// of the checker's additions are outcome-neutral; only the injected faults
// themselves perturb the run.
func (h *Harness) Wire(eng *sim.Engine, clu *cluster.Cluster, pool *condor.Pool) {
	if h.Check {
		h.chk = NewChecker(eng, clu, pool)
		eng.AfterStep = h.chk.Check
		o := h.Obs
		if o == nil {
			o = obs.New()
			o.Trace.SetStreaming(true)
			pool.SetObserver(o)
		}
		o.Trace.AddConsumer(h.chk)
		prev := pool.OnTerminal
		pool.OnTerminal = func(q *condor.QueuedJob) {
			h.chk.NoteTerminal(q)
			if prev != nil {
				prev(q)
			}
		}
	}
	if h.Profile.Enabled() {
		h.inj = NewInjector(eng, clu, pool, h.Profile, h.Seed, h.Obs)
		h.inj.Start()
	}
}

// Finish runs the terminal invariant checks and returns every recorded
// violation (nil when clean, or when the harness ran without Check).
func (h *Harness) Finish() []string {
	if h.chk == nil {
		return nil
	}
	return h.chk.Finish()
}

// InjectorStats returns the injection counters (zero without a profile).
//
//philint:ignore deadapi test hook: experiments' TestChaosDisabledPreservesOutcomes reads it
func (h *Harness) InjectorStats() Stats {
	if h.inj == nil {
		return Stats{}
	}
	return h.inj.Stats()
}
