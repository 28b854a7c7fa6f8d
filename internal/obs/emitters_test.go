package obs_test

import (
	"fmt"
	"sort"
	"testing"

	"phishare/internal/experiments"
	"phishare/internal/faults"
	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
)

// fieldTypeSink records every (layer, kind, key, type) whose value would
// reach the encoder's reflection fallback.
type fieldTypeSink struct {
	events   int
	indirect map[string]bool
}

func (s *fieldTypeSink) Consume(e obs.Event) {
	s.events++
	for _, f := range e.Fields {
		if !obs.EncodesDirectly(f.Val) {
			s.indirect[fmt.Sprintf("%s/%s %s: %T", e.Layer, e.Kind, f.Key, f.Val)] = true
		}
	}
}

// TestEmittedFieldsEncodeDirectly runs instrumented MC, MCC and MCCK cells,
// clean and under both fault profiles, and requires every emitted field
// value to have a direct case in the JSON encoder: no in-tree emitter may
// depend on the reflection fallback. (WriteChromeTrace's args are built
// from Span fields of string, int, int64, bool and units.Tick type, all
// direct by construction.)
func TestEmittedFieldsEncodeDirectly(t *testing.T) {
	sink := &fieldTypeSink{indirect: map[string]bool{}}
	profiles := append([]faults.Profile{{}}, faults.Profiles()...)
	for _, policy := range []string{experiments.PolicyMC, experiments.PolicyMCC, experiments.PolicyMCCK} {
		for _, prof := range profiles {
			const seed = 5
			o := obs.New()
			o.Trace.AddConsumer(sink)
			cfg := experiments.RunConfig{
				Policy: policy,
				Nodes:  3,
				Jobs:   job.GenerateTableOneSet(60, rng.New(seed)),
				Seed:   seed,
				Obs:    o,
			}
			if prof.Enabled() {
				cfg.Chaos = &faults.Harness{Profile: prof, Seed: seed}
			}
			experiments.Run(cfg)
		}
	}
	if sink.events == 0 {
		t.Fatal("instrumented runs emitted no events")
	}
	var bad []string
	for k := range sink.indirect {
		bad = append(bad, k)
	}
	sort.Strings(bad)
	for _, k := range bad {
		t.Errorf("field reaches the reflection fallback: %s", k)
	}
}
