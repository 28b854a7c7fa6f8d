package experiments

import (
	"testing"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/sim"
)

// TestEventCountPin pins the event traffic of the paper's testbed cell
// (200 Table I jobs on 8 nodes, seed 11) under MC, MCC and MCCK: the events
// the engine processes, how many of them were scheduled for their own
// instant, and, with the obs layer attached, the events and the sampled
// time-series rows (phisched's -series). A change to how components
// schedule their continuations must leave every count alone: an event
// added, dropped or moved across an instant shows here even where no
// simulated outcome moves, and a change to Engine.Pending shows in the
// sample count, because the sampler re-arms only while events are pending.
func TestEventCountPin(t *testing.T) {
	type counts struct {
		steps, zeroDelay, obsSteps uint64
		samples                    int
	}
	want := map[string]counts{
		PolicyMC:   {steps: 5201, zeroDelay: 1551, obsSteps: 5365, samples: 165},
		PolicyMCC:  {steps: 5781, zeroDelay: 1551, obsSteps: 5903, samples: 123},
		PolicyMCCK: {steps: 5837, zeroDelay: 1551, obsSteps: 5941, samples: 105},
	}
	jobs := job.GenerateTableOneSet(200, rng.New(11).Fork("tableI"))
	for _, pol := range Policies() {
		var got counts
		eng := sim.New()
		runOn(eng, RunConfig{Policy: pol, Nodes: 8, Jobs: jobs, Seed: 11})
		got.steps, got.zeroDelay = eng.Steps(), eng.ZeroDelay()
		o := obs.New()
		eng = sim.New()
		runOn(eng, RunConfig{Policy: pol, Nodes: 8, Jobs: jobs, Seed: 11, Obs: o})
		got.obsSteps, got.samples = eng.Steps(), o.Sampler().Samples()
		if got != want[pol] {
			t.Errorf("%s: event counts %+v, want %+v", pol, got, want[pol])
		}
	}
}
