package experiments

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"phishare/internal/condor"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/units"
)

// layerSet records the layers of the events it consumes.
type layerSet map[string]bool

func (s layerSet) Consume(e obs.Event) { s[e.Layer] = true }

// TestObservabilityPreservesOutcomes is the observability analogue of
// TestOptimizedPathsPreserveOutcomes: the full MCCK Table-II stack with
// every layer instrumented (metrics, trace events, and the time-series
// sampler ticking on the shared engine) must produce
// bit-identical job records, makespans, and footprints vs a bare run.
// Instrumentation that changes a simulated outcome is never acceptable.
func TestObservabilityPreservesOutcomes(t *testing.T) {
	// The event engine is serial; the subtest keeps the run mode in the
	// test name so results stay comparable across engine changes.
	t.Run("serial", func(t *testing.T) {
		for _, seed := range []int64{3, 11} {
			jobs := job.GenerateTableOneSet(90, rng.New(seed))
			layers := layerSet{}
			run := func(instrumented bool) (Result, []metrics.JobRecord, *obs.Observer) {
				var recs []metrics.JobRecord
				cfg := RunConfig{
					Policy:     PolicyMCCK,
					Nodes:      3,
					Jobs:       jobs,
					Seed:       seed,
					RecordSink: &recs,
				}
				var o *obs.Observer
				if instrumented {
					o = obs.New()
					o.Trace.AddConsumer(layers)
					cfg.Obs = o
				}
				res := Run(cfg)
				return res, recs, o
			}
			bare, bareRecs, _ := run(false)
			inst, instRecs, o := run(true)

			if bare.Makespan != inst.Makespan {
				t.Fatalf("seed %d: instrumentation changed makespan: %v -> %v",
					seed, bare.Makespan, inst.Makespan)
			}
			if !reflect.DeepEqual(bareRecs, instRecs) {
				for i := range bareRecs {
					if i < len(instRecs) && bareRecs[i] != instRecs[i] {
						t.Errorf("seed %d: record %d differs:\nbare:         %+v\ninstrumented: %+v",
							seed, i, bareRecs[i], instRecs[i])
						break
					}
				}
				t.Fatalf("seed %d: instrumented record stream (%d) != bare (%d)",
					seed, len(instRecs), len(bareRecs))
			}
			if !reflect.DeepEqual(bare.Summary, inst.Summary) {
				t.Fatalf("seed %d: summaries differ:\nbare:         %+v\ninstrumented: %+v",
					seed, bare.Summary, inst.Summary)
			}

			// Footprint runs a sweep of full simulations; instrument every
			// one of them (sharing one observer across the sweep is fine —
			// outcomes must not care).
			target := bare.Makespan * 2
			fpCfg := RunConfig{Policy: PolicyMCCK, Nodes: 1, Jobs: jobs, Seed: seed}
			bareFP, bareOK := Footprint(fpCfg, target, 3)
			instFPCfg := fpCfg
			instFPCfg.Obs = obs.New()
			instFP, instOK := Footprint(instFPCfg, target, 3)
			if bareFP != instFP || bareOK != instOK {
				t.Fatalf("seed %d: instrumentation changed footprint: (%d,%v) -> (%d,%v)",
					seed, bareFP, bareOK, instFP, instOK)
			}

			// Sanity: the instrumented run actually observed all four layers.
			for _, layer := range []string{obs.LayerCondor, obs.LayerCore, obs.LayerCosmic, obs.LayerPhi} {
				if !layers[layer] {
					t.Errorf("seed %d: no trace events from layer %q", seed, layer)
				}
			}
			if o.Sampler().Samples() == 0 {
				t.Errorf("seed %d: sampler recorded nothing", seed)
			}
		}
	})
}

// TestMatchCacheObservable asserts the match cache is visible through the
// registry: a Table-II-style MC run, where neither side's Requirements folds
// to a constant, must record cache hits and misses, and with
// DisableMatchCache set every cache series must stay zero under MC and MCCK
// alike. MCCK's cached run is not asked for hits: every unpinned job's
// "false" folds and skips the cache, and a pinned job usually matches in
// the cycle that pinned it, so its cluster's lookups are first sightings.
func TestMatchCacheObservable(t *testing.T) {
	jobs := job.GenerateTableOneSet(90, rng.New(5))
	run := func(policy string, noCache bool) *obs.Observer {
		o := obs.New()
		Run(RunConfig{
			Policy: policy,
			Nodes:  3,
			Jobs:   jobs,
			Seed:   5,
			Condor: condor.Config{DisableMatchCache: noCache},
			Obs:    o,
		})
		return o
	}

	cached := run(PolicyMC, false)
	hits := cached.Reg.CounterValue("condor_match_cache_hits_total")
	misses := cached.Reg.CounterValue("condor_match_cache_misses_total")
	if hits == 0 {
		t.Error("cached run recorded zero match-cache hits")
	}
	if misses == 0 {
		t.Error("cached run recorded zero match-cache misses (first lookups must miss)")
	}

	for _, policy := range []string{PolicyMC, PolicyMCCK} {
		uncached := run(policy, true)
		for _, name := range []string{
			"condor_match_cache_hits_total",
			"condor_match_cache_misses_total",
			"condor_match_cache_invalidations_total",
		} {
			if v := uncached.Reg.CounterValue(name); v != 0 {
				t.Errorf("%s DisableMatchCache run recorded %s = %d, want 0", policy, name, v)
			}
		}
		// The rest of the instrumentation still works without the cache.
		if uncached.Reg.CounterValue("condor_negotiations_total") == 0 {
			t.Errorf("%s uncached run recorded zero negotiations", policy)
		}
	}
}

// TestInstrumentedRunArtifacts drives every exporter off one instrumented
// MCCK run and validates the formats end to end: parseable JSONL covering
// all four layers, a well-formed Prometheus snapshot, aligned CSV time
// series, and a dashboard page.
func TestInstrumentedRunArtifacts(t *testing.T) {
	o := obs.New()
	o.SampleInterval = 2 * units.Second
	Run(RunConfig{
		Policy: PolicyMCCK,
		Nodes:  2,
		Jobs:   job.GenerateTableOneSet(60, rng.New(9)),
		Seed:   9,
		Obs:    o,
	})

	// JSONL: every line parses; all four layers appear.
	var events bytes.Buffer
	if err := o.WriteEvents(&events); err != nil {
		t.Fatal(err)
	}
	layers := map[string]int{}
	condorKinds := map[string]int{}
	lines := strings.Split(strings.TrimRight(events.String(), "\n"), "\n")
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("event line %d not valid JSON: %v\n%s", i, err, ln)
		}
		layers[m["layer"].(string)]++
		if m["layer"] == obs.LayerCondor {
			condorKinds[m["kind"].(string)]++
		}
		if _, ok := m["time_ms"].(float64); !ok {
			t.Fatalf("event line %d missing time_ms: %s", i, ln)
		}
	}
	for _, l := range []string{"condor", "core", "cosmic", "phi"} {
		if layers[l] == 0 {
			t.Errorf("JSONL stream has no %s events", l)
		}
	}

	// Prometheus: TYPE lines and series for every layer's families.
	var prom bytes.Buffer
	if err := o.WriteMetrics(&prom); err != nil {
		t.Fatal(err)
	}
	ptext := prom.String()
	for _, want := range []string{
		"# TYPE condor_matches_total counter",
		"# TYPE core_plan_rounds_total counter",
		"# TYPE cosmic_offloads_dispatched_total counter",
		"# TYPE phi_offloads_started_total counter",
		"# TYPE phi_speed_factor histogram",
		"phi_speed_factor_bucket{device=",
		`le="+Inf"`,
	} {
		if !strings.Contains(ptext, want) {
			t.Errorf("prometheus snapshot missing %q", want)
		}
	}
	for i, ln := range strings.Split(strings.TrimRight(ptext, "\n"), "\n") {
		if strings.HasPrefix(ln, "#") {
			continue
		}
		if !strings.Contains(ln, " ") {
			t.Fatalf("prometheus line %d malformed: %q", i, ln)
		}
	}

	// Time-series CSV: rectangular, starts with time_ms.
	var series bytes.Buffer
	if err := o.WriteSeriesCSV(&series); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&series).ReadAll()
	if err != nil {
		t.Fatalf("series CSV unparseable: %v", err)
	}
	if len(recs) < 3 || recs[0][0] != "time_ms" {
		t.Fatalf("series CSV shape: %d rows, header %v", len(recs), recs[0])
	}

	// Dashboard renders and references the sampled series.
	var dash bytes.Buffer
	if err := o.WriteDashboard(&dash, "phisched run"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"<!DOCTYPE html>", "phi_busy_cores", "condor_matches_total", "<svg"} {
		if !strings.Contains(dash.String(), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}

	// The condor lines carry the job lifecycle of the same run.
	if condorKinds["submit"] != 60 {
		t.Errorf("JSONL condor submits = %d, want 60", condorKinds["submit"])
	}
	if condorKinds["terminate"] == 0 {
		t.Error("JSONL stream has no condor terminations")
	}
}

// TestSpanPipelineEndToEnd runs an instrumented cluster and checks the full
// analysis pipeline that cmd/phisched exports: a live SpanBuilder consuming
// the canonical stream assembles one span per job and agrees with the
// retained trace, the critical path ends exactly at the measured makespan,
// and the Perfetto export is valid Chrome trace-event JSON.
func TestSpanPipelineEndToEnd(t *testing.T) {
	o := obs.New()
	live := obs.NewSpanBuilder()
	o.Trace.AddConsumer(live)
	res := Run(RunConfig{
		Policy: PolicyMCCK,
		Nodes:  3,
		Jobs:   job.GenerateTableOneSet(80, rng.New(13)),
		Seed:   13,
		Obs:    o,
	})

	spans := live.Spans()
	if len(spans) != 80 {
		t.Fatalf("got %d spans, want one per job", len(spans))
	}
	post := obs.SpansFromTrace(o.Trace)
	if len(post) != len(spans) {
		t.Fatalf("live (%d) and post-hoc (%d) span counts differ", len(spans), len(post))
	}
	completed := 0
	for i, s := range spans {
		p := post[i]
		if s.Job != p.Job || s.End != p.End || s.Outcome != p.Outcome {
			t.Fatalf("span %d: live %+v vs post-hoc %+v", i, *s, *p)
		}
		if s.Outcome == "completed" {
			completed++
			last := s.Attempts[len(s.Attempts)-1]
			if last.Open || last.End != s.End || last.Machine == "" {
				t.Fatalf("completed span %d has broken final attempt: %+v", s.Job, *last)
			}
			if len(last.Offloads) == 0 {
				t.Fatalf("completed span %d has no offloads", s.Job)
			}
		}
	}
	if completed != int(res.Summary.Completed) {
		t.Fatalf("completed spans %d, run reports %d", completed, res.Summary.Completed)
	}

	// Critical path must terminate at the run's makespan and attribute a
	// meaningful share of it.
	cp := obs.AnalyzeCriticalPath(spans)
	if cp == nil {
		t.Fatal("no critical path")
	}
	if cp.Makespan != res.Makespan {
		t.Fatalf("critical path makespan %v, run makespan %v", cp.Makespan, res.Makespan)
	}
	if cp.Covered <= 0 || cp.Covered > cp.Makespan {
		t.Fatalf("covered %v outside (0, %v]", cp.Covered, cp.Makespan)
	}
	var kindSum units.Tick
	for _, sh := range cp.ByKind {
		kindSum += sh.Total
	}
	if kindSum != cp.Covered {
		t.Fatalf("phase shares sum to %v, covered %v", kindSum, cp.Covered)
	}
	var report bytes.Buffer
	if err := cp.WriteText(&report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "where did the makespan go?") {
		t.Fatal("report missing attribution header")
	}

	// Perfetto export parses as JSON and carries events for every node.
	var pf bytes.Buffer
	if err := obs.WriteChromeTrace(&pf, spans); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(pf.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export not valid JSON: %v", err)
	}
	evs, _ := doc["traceEvents"].([]any)
	if len(evs) < 80 {
		t.Fatalf("perfetto export has %d events for an 80-job run", len(evs))
	}

	// The dashboard grew the makespan panel.
	var dash bytes.Buffer
	if err := o.WriteDashboard(&dash, "span test"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dash.String(), "Where did the makespan go?") {
		t.Fatal("dashboard missing makespan attribution panel")
	}
}
