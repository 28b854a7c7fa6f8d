package obs

import (
	"io"

	"phishare/internal/sim"
	"phishare/internal/units"
)

// Layer names used by the stack's emitters.
const (
	LayerCondor = "condor"
	LayerCore   = "core"
	LayerCosmic = "cosmic"
	LayerPhi    = "phi"
	LayerFaults = "faults"
)

// DefaultSampleInterval is the time-series sampling period used when an
// Observer does not override it: 5 simulated seconds, fine enough to
// resolve negotiation cycles (default 20 s) and offload lifetimes.
const DefaultSampleInterval = 5 * units.Second

// Observer bundles one run's observability state: the metrics registry, the
// structured event trace, and (once bound to an engine) the time-series
// sampler. Components accept an Observer via SetObserver and resolve their
// instrument handles once; a nil *Observer hands out nil instruments and
// drops events, so the disabled cost at every site is a nil check.
type Observer struct {
	Reg   *Registry
	Trace *Trace
	// SampleInterval is the sampler period; zero takes
	// DefaultSampleInterval.
	SampleInterval units.Tick
	sampler        *Sampler
}

// New returns an Observer with a fresh registry and trace.
func New() *Observer {
	return &Observer{Reg: NewRegistry(), Trace: NewTrace()}
}

// Counter resolves a counter series. Safe on a nil observer (returns a nil
// no-op counter).
func (o *Observer) Counter(name string, labels ...string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name, labels...)
}

// Gauge resolves a gauge series. Safe on a nil observer.
func (o *Observer) Gauge(name string, labels ...string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.Gauge(name, labels...)
}

// Histogram resolves a histogram series. Safe on a nil observer.
func (o *Observer) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(name, bounds, labels...)
}

// Emit records one trace event. Safe on a nil observer, but hot paths must
// guard the call with `if x.obs != nil` so field construction is skipped
// when disabled.
func (o *Observer) Emit(at units.Tick, layer, kind string, fields ...Field) {
	if o == nil {
		return
	}
	o.Trace.Emit(at, layer, kind, fields...)
}

// BindSampler creates the run's sampler on eng at SampleInterval. Returns
// nil on a nil observer. Rebinding to the same engine returns the existing
// sampler; a different engine means a new run, so the sampler is replaced
// (an Observer reused across a sweep — e.g. Footprint — keeps only the last
// run's series, while metrics and events accumulate). The caller registers
// probes and then calls Start on the returned sampler.
func (o *Observer) BindSampler(eng *sim.Engine) *Sampler {
	if o == nil {
		return nil
	}
	if o.sampler == nil || o.sampler.eng != eng {
		iv := o.SampleInterval
		if iv <= 0 {
			iv = DefaultSampleInterval
		}
		o.sampler = NewSampler(eng, iv)
	}
	return o.sampler
}

// Sampler returns the bound sampler (nil before BindSampler or on a nil
// observer).
//
//philint:ignore deadapi test hook: experiments' TestObservabilityPreservesOutcomes and TestEventCountPin read the sample count
func (o *Observer) Sampler() *Sampler {
	if o == nil {
		return nil
	}
	return o.sampler
}

// WriteMetrics writes the Prometheus text-format snapshot.
func (o *Observer) WriteMetrics(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.Reg.WritePrometheus(w)
}

// WriteEvents writes the JSONL event stream.
func (o *Observer) WriteEvents(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.Trace.WriteJSONL(w)
}

// WriteSeriesCSV writes the sampled time series as CSV (nothing if no
// sampler was bound).
func (o *Observer) WriteSeriesCSV(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.sampler.WriteCSV(w)
}
