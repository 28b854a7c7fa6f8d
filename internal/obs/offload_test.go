package obs

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"phishare/internal/units"
)

// off is one offload of a hand-built span set; end -1 leaves it open.
type off struct {
	job        int64
	start, end units.Tick
	threads    int64
	completed  bool
}

// spansOf builds one single-attempt span per job, in first-mention order,
// holding the given offloads.
func spansOf(offs ...off) []*Span {
	byJob := map[int64]*Span{}
	var out []*Span
	for _, o := range offs {
		s := byJob[o.job]
		if s == nil {
			s = &Span{Job: o.job, Attempts: []*Attempt{{Machine: "slot1@n1"}}}
			byJob[o.job] = s
			out = append(out, s)
		}
		a := s.Attempts[0]
		a.Offloads = append(a.Offloads, Offload{
			Device: "slot1@n1", Start: o.start, End: o.end,
			Threads: o.threads, Completed: o.completed, Open: o.end < 0,
		})
	}
	return out
}

var testNames = map[int64]string{1: "J1", 2: "J2", 3: "J3"}

func TestOffloadRowsFromSpans(t *testing.T) {
	rows := offloadRows(spansOf(
		off{1, 0, 1000, 240, true},
		off{2, 1500, 2500, 120, true},
	))
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].job != 1 || rows[0].End-rows[0].Start != 1000 {
		t.Errorf("first row %+v", rows[0])
	}
	if end := closedEnd(rows); end != 2500 {
		t.Errorf("closedEnd = %v", end)
	}
	if jobs := rowJobs(rows); len(jobs) != 2 || jobs[0] != 1 || jobs[1] != 2 {
		t.Errorf("rowJobs = %v", jobs)
	}
}

// TestOffloadRowsInterleaved: rows from every attempt of every span merge
// in start order, ties broken by job id whatever the span order.
func TestOffloadRowsInterleaved(t *testing.T) {
	spans := spansOf(
		off{2, 500, 1500, 120, true},
		off{1, 0, 1000, 120, true},
		off{3, 500, 900, 60, true},
	)
	// Job 1 resubmitted: a second attempt's offload joins the same list.
	spans[1].Attempts = append(spans[1].Attempts, &Attempt{Offloads: []Offload{{Start: 400, End: 600, Threads: 60}}})
	rows := offloadRows(spans)
	var got []int64
	for _, r := range rows {
		got = append(got, r.job)
	}
	if want := []int64{1, 1, 2, 3}; !slices.Equal(got, want) {
		t.Errorf("row jobs %v, want %v", got, want)
	}
	if rows[2].Start != 500 || rows[2].End != 1500 {
		t.Errorf("job 2 row %+v", rows[2])
	}
}

func TestOffloadAbortedMarked(t *testing.T) {
	r := offloadRows(spansOf(off{1, 0, 200, 60, false}))[0]
	if r.Completed || r.state() != "aborted" {
		t.Errorf("aborted row %+v state %q", r, r.state())
	}
}

func TestWriteOffloadCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOffloadCSV(&buf, spansOf(off{1, 0, 1000, 240, true}), testNames); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines: %v", lines)
	}
	if lines[0] != "job,start_ms,end_ms,threads,completed,state" {
		t.Errorf("header %q", lines[0])
	}
	if lines[1] != "J1,0,1000,240,true,completed" {
		t.Errorf("row %q", lines[1])
	}
}

// TestWriteOffloadCSVStates: an in-flight offload exports with end_ms -1
// and an explicit "running" state, an aborted one is labelled "aborted",
// and a job missing from the name map prints as its id.
func TestWriteOffloadCSVStates(t *testing.T) {
	spans := spansOf(
		off{1, 0, 1000, 240, true},
		off{2, 500, 800, 60, false},
		off{7, 2000, -1, 120, false},
	)
	var buf bytes.Buffer
	if err := WriteOffloadCSV(&buf, spans, testNames); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"job,start_ms,end_ms,threads,completed,state",
		"J1,0,1000,240,true,completed",
		"J2,500,800,60,false,aborted",
		"7,2000,-1,120,false,running",
	}
	if len(lines) != len(want) {
		t.Fatalf("csv lines: %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

func TestRenderOffloadsShape(t *testing.T) {
	out := RenderOffloads(spansOf(
		off{1, 0, 500, 240, true},
		off{2, 500, 1000, 120, true},
	), testNames, 40, 240)
	if !strings.Contains(out, "J1") || !strings.Contains(out, "J2") {
		t.Fatalf("render missing jobs:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("full-width offload not marked with #")
	}
	if !strings.Contains(out, "=") {
		t.Error("partial offload not marked with =")
	}
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "J1") || !strings.HasPrefix(lines[1], "J2") {
		t.Errorf("row order wrong:\n%s", out)
	}
}

func TestRenderOffloadsEmpty(t *testing.T) {
	for _, spans := range [][]*Span{nil, spansOf(off{1, 0, -1, 240, false})} {
		if out := RenderOffloads(spans, testNames, 40, 240); !strings.Contains(out, "no offload activity") {
			t.Errorf("empty render: %q", out)
		}
	}
}

func TestOffloadTimeline(t *testing.T) {
	// 240 threads for the first half, 120 for the second.
	spans := spansOf(
		off{1, 0, 1000, 240, true},
		off{2, 1000, 2000, 120, true},
		off{3, 500, -1, 240, false}, // open: ignored
	)
	tl := OffloadTimeline(spans, 4, 2000)
	want := []float64{240, 240, 120, 120}
	for i := range want {
		if diff := tl[i] - want[i]; diff > 0.01 || diff < -0.01 {
			t.Errorf("bucket %d = %v, want %v", i, tl[i], want[i])
		}
	}
}

func TestOffloadTimelinePartialOverlap(t *testing.T) {
	// 100 threads over [0, 500) in a 1000-wide bucket: average 50.
	tl := OffloadTimeline(spansOf(off{1, 0, 500, 100, true}), 1, 1000)
	if diff := tl[0] - 50; diff > 0.01 || diff < -0.01 {
		t.Errorf("bucket = %v, want 50", tl[0])
	}
}

func TestOffloadTimelineDegenerate(t *testing.T) {
	spans := spansOf(off{1, 0, 500, 100, true})
	if OffloadTimeline(spans, 0, 100) != nil || OffloadTimeline(spans, 4, 0) != nil {
		t.Error("degenerate timeline not nil")
	}
}

func TestSparkline(t *testing.T) {
	runes := []rune(Sparkline([]float64{0, 120, 240}, 240))
	if len(runes) != 3 {
		t.Fatalf("sparkline %q", string(runes))
	}
	if runes[0] != ' ' || runes[2] != '█' {
		t.Errorf("sparkline extremes %q", string(runes))
	}
	if Sparkline(nil, 240) != "" || Sparkline([]float64{1}, 0) != "" {
		t.Error("degenerate sparkline not empty")
	}
}

func TestSparklineClamps(t *testing.T) {
	s := []rune(Sparkline([]float64{500, -5}, 240))
	if s[0] != '█' || s[1] != ' ' {
		t.Errorf("clamping wrong: %q", string(s))
	}
}

func TestWriteOffloadSVG(t *testing.T) {
	var buf bytes.Buffer
	spans := spansOf(
		off{1, 0, 3000, 240, true},
		off{2, 1000, 2000, 120, false}, // aborted
	)
	if err := WriteOffloadSVG(&buf, spans, testNames, 240); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "J1", "J2", "#d62728", "<title>"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if n := strings.Count(out, "<rect"); n != 3 { // background + 2 bars
		t.Errorf("SVG has %d rects, want 3:\n%s", n, out)
	}
}

// TestWriteOffloadSVGOpenInterval: a mid-run snapshot with an in-flight
// offload renders the open bar (dashed, to the chart edge) instead of
// dropping it, and the axis stretches to cover the open bar's start.
func TestWriteOffloadSVGOpenInterval(t *testing.T) {
	var buf bytes.Buffer
	spans := spansOf(
		off{1, 0, 3000, 240, true},
		off{2, 4000, -1, 120, false}, // still running, past the last close
	)
	if err := WriteOffloadSVG(&buf, spans, map[int64]string{1: "closed", 2: "inflight"}, 240); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"inflight", "still running", "stroke-dasharray", "(2 jobs, 4.0 s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "<rect"); n != 3 { // background + closed bar + open bar
		t.Errorf("SVG has %d rects, want 3:\n%s", n, out)
	}

	// Open-only spans must still render, not emit the empty placeholder.
	buf.Reset()
	if err := WriteOffloadSVG(&buf, spansOf(off{1, 0, -1, 60, false}), map[int64]string{1: "solo"}, 240); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "no offload activity") || !strings.Contains(buf.String(), "solo") {
		t.Errorf("open-only bar missing:\n%s", buf.String())
	}
}

func TestWriteOffloadSVGEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteOffloadSVG(&buf, nil, testNames, 240); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no offload activity") {
		t.Errorf("empty SVG: %q", buf.String())
	}
}

func TestOffloadSVGEscapesJobNames(t *testing.T) {
	var buf bytes.Buffer
	spans := spansOf(off{1, 0, 100, 60, true})
	if err := WriteOffloadSVG(&buf, spans, map[int64]string{1: `evil<>&"job`}, 240); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "evil<>") || !strings.Contains(buf.String(), "evil&lt;&gt;&amp;") {
		t.Errorf("job name not escaped in SVG:\n%s", buf.String())
	}
}
