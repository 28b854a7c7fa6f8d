package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"phishare/internal/sim"
	"phishare/internal/units"
)

func TestNilSafety(t *testing.T) {
	// Every instrument, and the observer itself, must accept calls as nil.
	var o *Observer
	o.Counter("x").Inc()
	o.Gauge("y").Set(3)
	o.Histogram("z", []float64{1}).Observe(2)
	o.Emit(0, "condor", "noop")
	if o.BindSampler(sim.New()) != nil {
		t.Fatal("nil observer must bind a nil sampler")
	}
	var smp *Sampler
	smp.Probe("p", func() float64 { return 0 })
	smp.Start()
	var buf bytes.Buffer
	for _, err := range []error{o.WriteMetrics(&buf), o.WriteEvents(&buf), o.WriteSeriesCSV(&buf), o.WriteDashboard(&buf, "t")} {
		if err != nil {
			t.Fatalf("nil writer errored: %v", err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("nil observer wrote %d bytes", buf.Len())
	}

	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	var g *Gauge
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	var h *Histogram
	h.Observe(1)
	if h.Mean() != 0 {
		t.Fatal("nil histogram stats")
	}
	var r *Registry
	if r.Counter("a") != nil || r.Gauge("b") != nil || r.Histogram("c", nil) != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	var tr *Trace
	tr.Emit(0, "l", "k")
	if tr.Len() != 0 {
		t.Fatal("nil trace recorded")
	}
}

func TestDisabledInstrumentsAllocateNothing(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var o *Observer
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Observe(2)
		// A disabled component holds a nil Observer; the emit site's guard
		// (`if x.obs != nil`) is what keeps the fields from being built,
		// but even an unguarded nil-Observer Emit with pre-boxed values
		// must not allocate.
		o.Emit(0, LayerPhi, "noop")
	})
	if allocs != 0 {
		t.Fatalf("disabled instruments allocated %.1f per op", allocs)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "policy", "MCCK")
	c.Inc()
	c.Add(4)
	if got := r.CounterValue("jobs_total", "policy", "MCCK"); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("jobs_total", "policy", "MCCK") != c {
		t.Fatal("same series must return same counter")
	}
	if r.Counter("jobs_total", "policy", "MC") == c {
		t.Fatal("different labels must return a fresh series")
	}

	g := r.Gauge("queue_depth")
	g.Set(7)
	if r.Gauge("queue_depth") != g || g.Value() != 7 {
		t.Fatalf("gauge = %v, want 7 on the same series", g.Value())
	}

	h := r.Histogram("wait_seconds", []float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 12, 100} {
		h.Observe(v)
	}
	if h.n != 5 {
		t.Fatalf("hist count = %d", h.n)
	}
	if h.sum != 116.5 {
		t.Fatalf("hist sum = %v", h.sum)
	}
	// Buckets: <=1 gets {0.5, 1}, <=5 gets {3}, <=10 none, +Inf {12, 100}.
	want := []int64{2, 1, 0, 2}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("registering family under two types must panic")
		}
	}()
	r.Gauge("m")
}

func TestSeriesName(t *testing.T) {
	if got := SeriesName("up"); got != "up" {
		t.Fatalf("unlabelled = %q", got)
	}
	got := SeriesName("phi_busy_cores", "device", `mic"0\x`)
	want := `phi_busy_cores{device="mic\"0\\x"}`
	if got != want {
		t.Fatalf("labelled = %q, want %q", got, want)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "cache", "match").Add(3)
	r.Gauge("depth").Set(2.5)
	h := r.Histogram("wait_seconds", []float64{1, 10}, "device", "mic0")
	h.Observe(0.5)
	h.Observe(4)
	h.Observe(40)
	r.Histogram("lag", []float64{0.5}).Observe(2)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	// Counters, then gauges, then histograms; series sorted within each.
	want := `# TYPE hits_total counter
hits_total{cache="match"} 3
# TYPE depth gauge
depth 2.5
# TYPE lag histogram
lag_bucket{le="0.5"} 0
lag_bucket{le="+Inf"} 1
lag_sum 2
lag_count 1
# TYPE wait_seconds histogram
wait_seconds_bucket{device="mic0",le="1"} 1
wait_seconds_bucket{device="mic0",le="10"} 2
wait_seconds_bucket{device="mic0",le="+Inf"} 3
wait_seconds_sum{device="mic0"} 44.5
wait_seconds_count{device="mic0"} 3
`
	if got != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}

func TestTraceJSONL(t *testing.T) {
	tr := NewTrace()
	tr.Emit(1500, LayerCondor, "match", F("job", 7), F("machine", `slot"1`))
	tr.Emit(2000, LayerCore, "knapsack",
		F("picked_jobs", []int{1, 2}), F("fastpath", true), F("value", int64(9)),
		F("mem_mb", units.MB(512)), F("threads", units.Threads(8)), F("speed", 0.75))
	// JSON has no NaN or infinity: non-finite floats encode as null.
	tr.Emit(2500, LayerPhi, "probe",
		F("ratio", math.NaN()), F("hi", math.Inf(1)), F("lo", math.Inf(-1)))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines", len(lines))
	}
	want0 := `{"time_ms":1500,"layer":"condor","kind":"match","job":7,"machine":"slot\"1"}`
	if lines[0] != want0 {
		t.Fatalf("line 0 = %s, want %s", lines[0], want0)
	}
	want2 := `{"time_ms":2500,"layer":"phi","kind":"probe","ratio":null,"hi":null,"lo":null}`
	if lines[2] != want2 {
		t.Fatalf("line 2 = %s, want %s", lines[2], want2)
	}
	// Every line must be independently parseable JSON.
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, ln)
		}
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatal(err)
	}
	if m["fastpath"] != true || m["speed"] != 0.75 || m["mem_mb"] != float64(512) {
		t.Fatalf("typed fields mangled: %v", m)
	}
	if tr.Events()[0].Field("job") != 7 {
		t.Fatal("Field lookup failed")
	}
}

func TestSamplerDeterministicTicksAndTermination(t *testing.T) {
	eng := sim.New()
	var busy float64
	// A fake workload: busy 0→3→1→0 over 30 s.
	eng.At(0, func() { busy = 3 })
	eng.At(12*units.Second, func() { busy = 1 })
	eng.At(30*units.Second, func() { busy = 0 })

	s := NewSampler(eng, 5*units.Second)
	s.Probe("busy", func() float64 { return busy })
	s.Start()
	end := eng.Run() // must terminate: sampler stops once the queue drains

	if end < 30*units.Second {
		t.Fatalf("run ended at %v, before workload", end)
	}
	// Samples at 0,5,...,30 plus one final tick already queued when the
	// 30 s event fired; the sampler must not extend the run indefinitely.
	if s.Samples() < 7 {
		t.Fatalf("too few samples: %d", s.Samples())
	}
	if end > 40*units.Second {
		t.Fatalf("sampler kept engine alive until %v", end)
	}
	// The initial sample fires before the engine runs (busy still 0); the
	// 5 s tick sees 3, the 15 s tick sees 1, the final tick sees 0.
	got := make([]float64, len(s.rows))
	for i, row := range s.rows {
		got[i] = row[0]
	}
	if got[0] != 0 || got[1] != 3 || got[3] != 1 || got[len(got)-1] != 0 {
		t.Fatalf("series = %v", got)
	}
	times := s.times
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != 5*units.Second {
			t.Fatalf("irregular tick at %d: %v", i, times)
		}
	}
}

func TestSamplerCSV(t *testing.T) {
	eng := sim.New()
	eng.At(6*units.Second, func() {})
	s := NewSampler(eng, 5*units.Second)
	s.Probe("a", func() float64 { return 1.5 })
	s.Probe(SeriesName("b", "device", "mic0"), func() float64 { return 2 })
	s.Start()
	eng.Run()

	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(&buf)
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("sampler CSV is not parseable: %v", err)
	}
	if recs[0][0] != "time_ms" || recs[0][1] != "a" || recs[0][2] != `b{device="mic0"}` {
		t.Fatalf("header = %v", recs[0])
	}
	if recs[1][0] != "0" || recs[1][1] != "1.5" || recs[1][2] != "2" {
		t.Fatalf("row 1 = %v", recs[1])
	}
	if len(recs) < 2 {
		t.Fatalf("no data rows")
	}
}

func TestDashboard(t *testing.T) {
	o := New()
	o.Counter("condor_matches_total").Add(12)
	o.Counter("condor_autocluster_evals_saved_total").Add(36)
	o.Counter("condor_match_cache_hits_total").Add(9)
	o.Counter("condor_match_cache_misses_total").Add(3)
	o.Gauge("cosmic_offload_queue_depth", "device", "mic0").Set(4)
	o.Histogram("phi_speed", []float64{0.5, 1}).Observe(0.8)
	o.Emit(100, LayerPhi, "oom_kill", F("job", 3))
	eng := sim.New()
	eng.At(11*units.Second, func() {})
	o.SampleInterval = 5 * units.Second
	smp := o.BindSampler(eng)
	smp.Probe("busy", func() float64 { return 2 })
	smp.Start()
	eng.Run()

	var buf bytes.Buffer
	if err := o.WriteDashboard(&buf, "test run"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<!DOCTYPE html>", "<title>test run</title>",
		"condor_matches_total", `cosmic_offload_queue_depth{device=&#34;mic0&#34;}`,
		"phi_speed", "phi/oom_kill", "<svg", "polyline",
		// The scheduler-caches scorecard derives its ratios from the raw
		// counters: 36 saved of 48 candidate evals, 9 cache hits of 12.
		"Scheduler caches", "autocluster evals saved", "match-cache hit rate", "75.0%",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	// Deterministic bytes: rendering twice must be identical.
	var buf2 bytes.Buffer
	if err := o.WriteDashboard(&buf2, "test run"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("dashboard output is not deterministic")
	}
}

func TestObserverSampleIntervalDefault(t *testing.T) {
	o := New()
	eng := sim.New()
	smp := o.BindSampler(eng)
	if smp.interval != DefaultSampleInterval {
		t.Fatalf("interval = %v", smp.interval)
	}
	if o.BindSampler(eng) != smp {
		t.Fatal("BindSampler must be idempotent for the same engine")
	}
	// A different engine is a different run: the sampler is replaced so the
	// observer can be reused across a sweep (e.g. experiments.Footprint).
	if o.BindSampler(sim.New()) == smp {
		t.Fatal("BindSampler must replace the sampler for a new engine")
	}
}
