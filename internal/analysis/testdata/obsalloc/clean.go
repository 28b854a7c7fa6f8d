package fixture

import "fmt"

// view stands in for *obs.Observer: a nil-safe emitter whose variadic field
// slice is built by the caller.
type view struct{}

func (*view) Emit(at int64, layer, kind string, fields ...any) {}

type field struct {
	k string
	v any
}

func f(k string, v any) field { return field{k, v} }

type component struct {
	obs  *view
	host struct{ obs *view }
}

// cleanGuarded wraps every field-carrying emission in its receiver's nil
// guard, so the disabled path never builds the slice.
func cleanGuarded(c *component, now int64, job int) {
	if c.obs != nil {
		c.obs.Emit(now, "phi", "oom_kill", f("job", job))
	}
	if c.obs != nil && job > 0 {
		c.obs.Emit(now, "phi", "offload_start", f("job", job), f("threads", 4))
	}
	if c.host.obs != nil {
		c.host.obs.Emit(now, "cosmic", "admitted", f("job", job))
	}
}

// cleanFieldless carries no fields: the fixed (at, layer, kind) triple
// allocates nothing, so no guard is required.
func cleanFieldless(v *view, now int64) {
	v.Emit(now, "condor", "negotiation_start")
}

// cleanFormatting formats only under the guard.
func cleanFormatting(c *component, now int64, job int) {
	if c.obs != nil {
		c.obs.Emit(now, "condor", "match", f("name", fmt.Sprintf("job-%d", job)))
	}
}
