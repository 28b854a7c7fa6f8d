package obs

import "math"

// Float builds a floating-point field; no emitter writes one yet.
func Float(key string, v float64) Field { return scalar(key, kindFloat, math.Float64bits(v)) }

// Events returns the retained events in emission order, flattened into one
// new slice.
func (t *Trace) Events() []Event {
	var out []Event
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out
}
