// Package obs is the simulated-time observability layer shared by every
// layer of the stack: a metrics registry (counters, gauges, fixed-bucket
// histograms), a structured trace-event stream, and a deterministic
// time-series sampler driven by the sim clock, plus exporters for all three
// (Prometheus text format, JSONL, CSV, and a self-contained HTML dashboard).
//
// Two rules govern the design:
//
//   - Determinism: everything is keyed to simulated time and every exporter
//     emits series in sorted order, so an instrumented run produces
//     byte-identical artifacts on every execution. Instrumentation never
//     mutates simulation state — the regression test in internal/experiments
//     proves a fully instrumented run is bit-identical to a bare one.
//
//   - Nil safety: a nil *Observer, *Registry, *Counter, *Gauge, *Histogram,
//     *Trace, or *Sampler accepts every call as a no-op, so instrumented
//     components pay only a nil check (and allocate nothing) when
//     observability is disabled. Components resolve their instrument handles
//     once at wiring time (SetObserver), never per operation.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v int64 }

// Inc adds one. Safe on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. Safe on a nil counter.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a point-in-time float metric.
type Gauge struct{ v float64 }

// Set replaces the value. Safe on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the value. Safe on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g != nil {
		g.v += d
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a fixed-bucket histogram: observations are counted into the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// overflow bucket.
type Histogram struct {
	bounds []float64 // ascending upper bounds
	counts []int64   // len(bounds)+1; last is the +Inf bucket
	sum    float64
	n      int64
}

// Observe records one value. Safe on a nil histogram.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the mean observation (0 when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// seriesMeta records a series' metric family and rendered label pairs.
type seriesMeta struct {
	family string
	labels string // `k="v",k2="v2"` (no braces), empty when unlabelled
}

// Registry holds every metric series of one run. It is single-goroutine,
// like the simulation it instruments; each concurrent simulation owns its
// own registry. A nil *Registry accepts every call and hands out nil
// instruments.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	meta     map[string]seriesMeta
	ftype    map[string]string // family -> counter|gauge|histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		meta:     map[string]seriesMeta{},
		ftype:    map[string]string{},
	}
}

// SeriesName renders a metric family plus alternating label key/value pairs
// as the canonical series identifier, e.g.
// SeriesName("phi_busy_cores", "device", "slot1@node0") =
// `phi_busy_cores{device="slot1@node0"}`. Odd label counts panic.
func SeriesName(name string, labels ...string) string {
	id, _ := seriesID(name, labels)
	return id
}

func seriesID(name string, labels []string) (id, inner string) {
	if len(labels) == 0 {
		return name, ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, labels))
	}
	var sb strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(labels[i])
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(labels[i+1]))
		sb.WriteByte('"')
	}
	inner = sb.String()
	return name + "{" + inner + "}", inner
}

// labelEscaper is built once: a strings.Replacer costs several KB to
// construct, and series IDs are assembled for every instrument resolution
// (and every sampler-probe registration), which made per-call construction
// the single largest allocation source of an instrumented run.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string {
	return labelEscaper.Replace(v)
}

// checkType guards one family against being registered under two metric
// types, which would corrupt the Prometheus export.
func (r *Registry) checkType(family, typ string) {
	if prev, ok := r.ftype[family]; ok && prev != typ {
		panic(fmt.Sprintf("obs: metric family %s registered as both %s and %s", family, prev, typ))
	}
	r.ftype[family] = typ
}

// Counter returns (creating on first use) the counter series for name and
// labels. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	id, inner := seriesID(name, labels)
	if c, ok := r.counters[id]; ok {
		return c
	}
	r.checkType(name, "counter")
	c := &Counter{}
	r.counters[id] = c
	r.meta[id] = seriesMeta{family: name, labels: inner}
	return c
}

// Gauge returns (creating on first use) the gauge series for name and
// labels. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	id, inner := seriesID(name, labels)
	if g, ok := r.gauges[id]; ok {
		return g
	}
	r.checkType(name, "gauge")
	g := &Gauge{}
	r.gauges[id] = g
	r.meta[id] = seriesMeta{family: name, labels: inner}
	return g
}

// Histogram returns (creating on first use) the histogram series for name
// and labels, with the given ascending bucket upper bounds. A nil registry
// returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	id, inner := seriesID(name, labels)
	if h, ok := r.hists[id]; ok {
		return h
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	r.checkType(name, "histogram")
	h := &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
	r.hists[id] = h
	r.meta[id] = seriesMeta{family: name, labels: inner}
	return h
}

// CounterValue reads an existing counter series (0 when absent or nil).
func (r *Registry) CounterValue(name string, labels ...string) int64 {
	if r == nil {
		return 0
	}
	id, _ := seriesID(name, labels)
	return r.counters[id].Value()
}

// GaugeValue reads an existing gauge series (0 when absent or nil).
func (r *Registry) GaugeValue(name string, labels ...string) float64 {
	if r == nil {
		return 0
	}
	id, _ := seriesID(name, labels)
	return r.gauges[id].Value()
}

// sortedKeys returns map keys in sorted order — every exporter iterates
// series this way so output is deterministic.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry as a Prometheus text-format (0.0.4)
// snapshot: one # TYPE comment per family, series sorted, histograms as
// cumulative _bucket/_sum/_count triples. A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var buf []byte
	seen := map[string]bool{}
	typeLine := func(family, typ string) {
		if !seen[family] {
			seen[family] = true
			buf = append(buf, "# TYPE "...)
			buf = append(buf, family...)
			buf = append(buf, ' ')
			buf = append(buf, typ...)
			buf = append(buf, '\n')
		}
	}
	for _, id := range sortedKeys(r.counters) {
		typeLine(r.meta[id].family, "counter")
		buf = append(buf, id...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, r.counters[id].Value(), 10)
		buf = append(buf, '\n')
	}
	for _, id := range sortedKeys(r.gauges) {
		typeLine(r.meta[id].family, "gauge")
		buf = append(buf, id...)
		buf = append(buf, ' ')
		buf = strconv.AppendFloat(buf, r.gauges[id].Value(), 'g', -1, 64)
		buf = append(buf, '\n')
	}
	for _, id := range sortedKeys(r.hists) {
		m := r.meta[id]
		h := r.hists[id]
		typeLine(m.family, "histogram")
		// series starts a `<family><suffix>{<labels>,le="<le>"} ` line; the
		// le label is left out when le is nil, the braces when both are.
		series := func(suffix string, le []byte) {
			buf = append(buf, m.family...)
			buf = append(buf, suffix...)
			if m.labels == "" && le == nil {
				buf = append(buf, ' ')
				return
			}
			buf = append(buf, '{')
			buf = append(buf, m.labels...)
			if le != nil {
				if m.labels != "" {
					buf = append(buf, ',')
				}
				buf = append(buf, `le="`...)
				buf = append(buf, le...)
				buf = append(buf, '"')
			}
			buf = append(buf, "} "...)
		}
		var le []byte
		cum := int64(0)
		for i, b := range h.bounds {
			cum += h.counts[i]
			le = strconv.AppendFloat(le[:0], b, 'g', -1, 64)
			series("_bucket", le)
			buf = strconv.AppendInt(buf, cum, 10)
			buf = append(buf, '\n')
		}
		series("_bucket", []byte("+Inf"))
		buf = strconv.AppendInt(buf, h.n, 10)
		buf = append(buf, '\n')
		series("_sum", nil)
		buf = strconv.AppendFloat(buf, h.sum, 'g', -1, 64)
		buf = append(buf, '\n')
		series("_count", nil)
		buf = strconv.AppendInt(buf, h.n, 10)
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}
