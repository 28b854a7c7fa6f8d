package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"phishare/internal/units"
)

// traceFixture emits a small hand-built lifecycle stream:
//
//	job 1: queue → match on slot1@n1 → admit wait → offload (HOL wait) → done
//	job 2: same machine, matched right after job 1 frees it (blocker chain)
//	job 3: OOM-killed attempt on slot1@n2, resubmitted, completes second try
//	job 4: aborted by the stall detector
func traceFixture() *Trace {
	tr := NewTrace()
	e := tr.Emit
	// job 3 first attempt (earliest activity).
	e(0, LayerCondor, "submit", F("job", 3))
	e(500, LayerCondor, "match", F("job", 3), F("machine", "slot1@n2"))
	e(600, LayerCondor, "execute", F("job", 3), F("machine", "slot1@n2"))
	e(700, LayerPhi, "oom_kill", F("job", 3), F("device", "slot1@n2"))
	e(800, LayerCondor, "crash", F("job", 3), F("machine", "slot1@n2"), F("crashes", 1))
	e(900, LayerCondor, "resubmit", F("job", 3))
	// job 1.
	e(0, LayerCondor, "submit", F("job", 1))
	e(1000, LayerCondor, "match", F("job", 1), F("machine", "slot1@n1"))
	// job 3 second attempt.
	e(1000, LayerCondor, "match", F("job", 3), F("machine", "slot1@n2"))
	e(1100, LayerCondor, "execute", F("job", 1), F("machine", "slot1@n1"))
	e(1100, LayerCondor, "execute", F("job", 3), F("machine", "slot1@n2"))
	e(1150, LayerCosmic, "admitted", F("device", "slot1@n1"), F("job", 1), F("wait_ms", units.Tick(50)))
	e(1800, LayerCosmic, "offload_dispatched", F("device", "slot1@n1"), F("job", 1),
		F("threads", units.Threads(4)), F("wait_ms", units.Tick(200)))
	e(2000, LayerPhi, "offload_start", F("device", "slot1@n1"), F("job", 1), F("threads", units.Threads(4)))
	e(2000, LayerCondor, "terminate", F("job", 3), F("machine", "slot1@n2"))
	e(5000, LayerPhi, "offload_end", F("device", "slot1@n1"), F("job", 1), F("completed", true))
	e(6000, LayerCondor, "terminate", F("job", 1), F("machine", "slot1@n1"))
	// job 2 waits behind job 1.
	e(0, LayerCondor, "submit", F("job", 2))
	e(6100, LayerCondor, "match", F("job", 2), F("machine", "slot1@n1"))
	e(6200, LayerCondor, "execute", F("job", 2), F("machine", "slot1@n1"))
	e(6300, LayerPhi, "offload_start", F("device", "slot1@n1"), F("job", 2), F("threads", units.Threads(8)))
	e(9000, LayerPhi, "offload_end", F("device", "slot1@n1"), F("job", 2), F("completed", true))
	e(9500, LayerCondor, "terminate", F("job", 2), F("machine", "slot1@n1"))
	// job 4 never runs.
	e(0, LayerCondor, "submit", F("job", 4))
	e(9500, LayerCondor, "stall_abort", F("job", 4))
	return tr
}

func TestSpanAssembly(t *testing.T) {
	spans := SpansFromTrace(traceFixture())
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	for i, s := range spans {
		if s.Job != int64(i+1) {
			t.Fatalf("spans not sorted by job: %v", s.Job)
		}
	}

	j1 := spans[0]
	if j1.Outcome != "completed" || j1.End != 6000 || j1.Submit != 0 {
		t.Fatalf("job 1 span: outcome=%q end=%v submit=%v", j1.Outcome, j1.End, j1.Submit)
	}
	if len(j1.Attempts) != 1 {
		t.Fatalf("job 1 attempts: %d", len(j1.Attempts))
	}
	a := j1.Attempts[0]
	if a.Machine != "slot1@n1" || a.Match != 1000 || a.Execute != 1100 || a.End != 6000 || a.Open {
		t.Fatalf("job 1 attempt: %+v", *a)
	}
	if a.AdmitWait != 50 {
		t.Fatalf("job 1 admit wait = %v, want 50", a.AdmitWait)
	}
	if len(a.Offloads) != 1 {
		t.Fatalf("job 1 offloads: %d", len(a.Offloads))
	}
	o := a.Offloads[0]
	if o.Device != "slot1@n1" || o.Start != 2000 || o.End != 5000 || o.Threads != 4 ||
		!o.Completed || o.QueueWait != 200 || o.Open {
		t.Fatalf("job 1 offload: %+v", o)
	}

	j3 := spans[2]
	if len(j3.Attempts) != 2 {
		t.Fatalf("job 3 attempts: %d", len(j3.Attempts))
	}
	if !j3.Attempts[0].Crashed || !j3.Attempts[0].OOMKilled || j3.Attempts[0].End != 800 {
		t.Fatalf("job 3 first attempt: %+v", *j3.Attempts[0])
	}
	if j3.Outcome != "completed" || j3.End != 2000 {
		t.Fatalf("job 3 span: outcome=%q end=%v", j3.Outcome, j3.End)
	}
	if d := j3.End - j3.Submit; d != 2000 {
		t.Fatalf("job 3 duration = %v", d)
	}

	if spans[3].Outcome != "stalled" || len(spans[3].Attempts) != 0 {
		t.Fatalf("job 4 span: %+v", *spans[3])
	}
}

// TestSpanBuilderStreaming proves the builder works as a live consumer on an
// emit-and-drop trace: same spans as the retained post-hoc path, while the
// trace itself keeps nothing.
func TestSpanBuilderStreaming(t *testing.T) {
	retained := SpansFromTrace(traceFixture())

	tr := NewTrace()
	b := NewSpanBuilder()
	tr.AddConsumer(b)
	tr.SetStreaming(true)
	for _, e := range traceFixture().Events() {
		tr.Emit(e.At, e.Layer, e.Kind, e.Fields...)
	}
	if tr.Len() != 0 {
		t.Fatalf("streaming trace retained %d events", tr.Len())
	}
	streamed := b.Spans()
	if len(streamed) != len(retained) {
		t.Fatalf("span counts differ: %d streamed, %d retained", len(streamed), len(retained))
	}
	for i := range retained {
		r, s := retained[i], streamed[i]
		if r.Job != s.Job || r.End != s.End || r.Outcome != s.Outcome || len(r.Attempts) != len(s.Attempts) {
			t.Fatalf("span %d differs: retained %+v, streamed %+v", i, *r, *s)
		}
	}
}

func TestCriticalPath(t *testing.T) {
	spans := SpansFromTrace(traceFixture())
	cp := AnalyzeCriticalPath(spans)
	if cp == nil {
		t.Fatal("nil critical path")
	}
	if cp.Makespan != 9500 || cp.TailJob != 2 {
		t.Fatalf("makespan=%v tail=%d, want 9500 / job 2", cp.Makespan, cp.TailJob)
	}

	// The chain must walk job 2 back through its queue wait to blocker job 1,
	// and job 1 matched instantly (qStart 0 < match 1000 → unattributed queue
	// head). Chronological order, no overlaps going backwards.
	if len(cp.Segments) == 0 {
		t.Fatal("empty chain")
	}
	sawJob1, sawQueue := false, false
	for i, s := range cp.Segments {
		if s.End < s.Start {
			t.Fatalf("segment %d inverted: %+v", i, s)
		}
		if i > 0 && s.Start < cp.Segments[i-1].Start {
			t.Fatalf("chain not chronological at %d: %+v after %+v", i, s, cp.Segments[i-1])
		}
		if s.Job == 1 {
			sawJob1 = true
		}
		if s.Job == 2 && s.Kind == "queue" {
			sawQueue = true
			if s.Start != 6000 || s.End != 6100 || s.Where != "slot1@n1" {
				t.Fatalf("job 2 queue segment misattributed: %+v", s)
			}
		}
	}
	if !sawJob1 {
		t.Fatal("blocker job 1 not chained onto the critical path")
	}
	if !sawQueue {
		t.Fatal("job 2's queue wait missing from the chain")
	}

	// Attribution must be internally consistent: shares sum to Covered and
	// fractions to 1, both aggregations agree on the total.
	var kindSum, whereSum units.Tick
	for _, s := range cp.ByKind {
		kindSum += s.Total
	}
	for _, s := range cp.ByWhere {
		whereSum += s.Total
	}
	if kindSum != cp.Covered || whereSum != cp.Covered {
		t.Fatalf("share totals %v / %v, covered %v", kindSum, whereSum, cp.Covered)
	}
	for i := 1; i < len(cp.ByKind); i++ {
		if cp.ByKind[i].Total > cp.ByKind[i-1].Total {
			t.Fatal("ByKind not sorted by descending share")
		}
	}

	// Determinism: same spans, same analysis.
	again := AnalyzeCriticalPath(SpansFromTrace(traceFixture()))
	var b1, b2 bytes.Buffer
	if err := cp.WriteText(&b1); err != nil {
		t.Fatal(err)
	}
	if err := again.WriteText(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("critical-path report not deterministic")
	}
	if b1.Len() == 0 {
		t.Fatal("empty report")
	}

	if AnalyzeCriticalPath(nil) != nil {
		t.Fatal("AnalyzeCriticalPath(nil) should be nil")
	}
}

func TestChromeTraceExport(t *testing.T) {
	spans := SpansFromTrace(traceFixture())
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Ts   int64          `json:"ts"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	var procs, attempts, offloads, instants int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procs++
			}
		case "X":
			if ev.Dur < 0 {
				t.Fatalf("negative duration: %+v", ev)
			}
			switch ev.Args["machine"] {
			case nil:
				offloads++
			default:
				attempts++
			}
		case "i":
			instants++
		}
	}
	// Two nodes (n1, n2), 4 closed attempts (j1, j2, j3×2), 2 offloads, one
	// OOM instant.
	if procs != 2 {
		t.Fatalf("process_name events: %d, want 2", procs)
	}
	if attempts != 4 || offloads != 2 {
		t.Fatalf("attempts=%d offloads=%d, want 4/2", attempts, offloads)
	}
	if instants != 1 {
		t.Fatalf("instant events: %d, want 1", instants)
	}

	// ts/dur are microseconds: job 1's offload ran 2000→5000 ms.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "job 1" && ev.Args["machine"] == nil {
			found = true
			if ev.Ts != 2_000_000 || ev.Dur != 3_000_000 {
				t.Fatalf("offload ts/dur = %d/%d µs", ev.Ts, ev.Dur)
			}
		}
	}
	if !found {
		t.Fatal("job 1 offload event missing")
	}

	// Deterministic bytes.
	var again bytes.Buffer
	if err := WriteChromeTrace(&again, SpansFromTrace(traceFixture())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("chrome trace output not deterministic")
	}
}

// TestSpanBuilderRunnerOnlyStream: a stream without a condor pool (jobs
// driven straight onto a device, as in the Figs. 2–3 pairs) has no match
// event. Its offloads are kept on one machine-less attempt per job, and an
// offload with no end stays marked Open.
func TestSpanBuilderRunnerOnlyStream(t *testing.T) {
	tr := NewTrace()
	e := tr.Emit
	dev := F("device", "slot1@node0")
	e(2000, LayerPhi, "offload_start", dev, F("job", 1), F("threads", units.Threads(240)))
	e(5000, LayerPhi, "offload_end", dev, F("job", 1), F("completed", true))
	e(5000, LayerPhi, "offload_start", dev, F("job", 2), F("threads", units.Threads(240)))
	e(7000, LayerPhi, "offload_start", dev, F("job", 1), F("threads", units.Threads(240)))
	e(8000, LayerPhi, "offload_end", dev, F("job", 2), F("completed", false))
	spans := SpansFromTrace(tr)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	want := [][]Offload{
		{
			{Device: "slot1@node0", Start: 2000, End: 5000, Threads: 240, Completed: true},
			{Device: "slot1@node0", Start: 7000, End: -1, Threads: 240, Open: true},
		},
		{{Device: "slot1@node0", Start: 5000, End: 8000, Threads: 240}},
	}
	for i, s := range spans {
		if len(s.Attempts) != 1 {
			t.Fatalf("job %d: %d attempts, want 1", s.Job, len(s.Attempts))
		}
		a := s.Attempts[0]
		if a.Machine != "" || a.Match != -1 || !a.Open {
			t.Errorf("job %d: attempt %+v, want an open machine-less attempt", s.Job, a)
		}
		if !reflect.DeepEqual(a.Offloads, want[i]) {
			t.Errorf("job %d offloads:\n got %+v\nwant %+v", s.Job, a.Offloads, want[i])
		}
	}
}
