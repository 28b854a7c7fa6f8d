package obs

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"html"
	"io"
	"slices"
	"strconv"
	"strings"

	"phishare/internal/units"
)

// Offload timelines: the coprocessor usage profiles of the paper's
// Figs. 2–3, rendered from the offload segments of job spans. Each renderer
// takes the spans plus a job-id → display-name lookup (an id missing from
// names prints as its decimal id) and flattens every attempt's offloads
// into one row list ordered by start, ties by job id.

// palette is the colorblind-safe palette shared by the offload SVG (one
// color per job row) and the dashboard sparklines.
var palette = []string{"#1f77b4", "#2ca02c", "#9467bd", "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"}

// offloadRow is one offload with its owning job.
type offloadRow struct {
	job int64
	Offload
}

// state labels the offload: "running" while open, then "completed" or
// "aborted" — the explicit open-end marker of the CSV export, so consumers
// need not know that End == -1 means in flight.
func (r offloadRow) state() string {
	switch {
	case r.Open:
		return "running"
	case r.Completed:
		return "completed"
	}
	return "aborted"
}

// jobName looks id up in names, falling back to the decimal id.
func jobName(names map[int64]string, id int64) string {
	if name, ok := names[id]; ok {
		return name
	}
	return strconv.FormatInt(id, 10)
}

// offloadRows flattens the spans' offloads in (start, job id) order.
func offloadRows(spans []*Span) []offloadRow {
	var rows []offloadRow
	for _, s := range spans {
		for _, a := range s.Attempts {
			for _, o := range a.Offloads {
				rows = append(rows, offloadRow{job: s.Job, Offload: o})
			}
		}
	}
	slices.SortStableFunc(rows, func(a, b offloadRow) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.job, b.job))
	})
	return rows
}

// rowJobs returns the distinct job ids in first-offload order: the chart
// rows, top to bottom.
func rowJobs(rows []offloadRow) []int64 {
	seen := map[int64]bool{}
	var jobs []int64
	for _, r := range rows {
		if !seen[r.job] {
			seen[r.job] = true
			jobs = append(jobs, r.job)
		}
	}
	return jobs
}

// closedEnd returns the latest end of a closed offload (0 if none closed).
func closedEnd(rows []offloadRow) units.Tick {
	var end units.Tick
	for _, r := range rows {
		end = max(end, r.End)
	}
	return end
}

// WriteOffloadCSV emits one row per offload with a header row; an open
// offload has end_ms -1 and state "running".
func WriteOffloadCSV(w io.Writer, spans []*Span, names map[int64]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"job", "start_ms", "end_ms", "threads", "completed", "state"}); err != nil {
		return err
	}
	for _, r := range offloadRows(spans) {
		rec := []string{
			jobName(names, r.job),
			strconv.FormatInt(int64(r.Start), 10),
			strconv.FormatInt(int64(r.End), 10),
			strconv.FormatInt(r.Threads, 10),
			strconv.FormatBool(r.Completed),
			r.state(),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// RenderOffloads draws an ASCII timeline like the paper's Figs. 2–3: one
// row per job, '#' where the job's offload occupies the device (more than
// half of hwThreads), '=' for partial-width offloads, '.' where the job
// runs on the host or idles. width is the number of character cells; open
// offloads are not drawn.
func RenderOffloads(spans []*Span, names map[int64]string, width int, hwThreads int64) string {
	if width <= 0 {
		width = 80
	}
	rows := offloadRows(spans)
	end := closedEnd(rows)
	if end == 0 {
		return "(no offload activity)\n"
	}
	var sb strings.Builder
	cell := float64(end) / float64(width)
	for _, id := range rowJobs(rows) {
		line := []byte(strings.Repeat(".", width))
		for _, r := range rows {
			if r.job != id || r.Open {
				continue
			}
			mark := byte('=')
			if r.Threads*2 > hwThreads {
				mark = '#'
			}
			from := int(float64(r.Start) / cell)
			to := min(int(float64(r.End)/cell), width-1)
			for i := from; i <= to; i++ {
				line[i] = mark
			}
		}
		fmt.Fprintf(&sb, "%-12s |%s|\n", jobName(names, id), line)
	}
	fmt.Fprintf(&sb, "%-12s  0%*s\n", "", width-1, end)
	fmt.Fprintf(&sb, "('#' offload >50%% of threads, '=' partial offload, '.' host/idle)\n")
	return sb.String()
}

// OffloadTimeline bins the average occupied threads over [0, end) into n
// buckets. Open offloads are ignored. Sparkline renders the result.
func OffloadTimeline(spans []*Span, n int, end units.Tick) []float64 {
	if n <= 0 || end <= 0 {
		return nil
	}
	out := make([]float64, n)
	width := float64(end) / float64(n)
	for _, r := range offloadRows(spans) {
		if r.Open {
			continue
		}
		lo, hi := float64(r.Start), min(float64(r.End), float64(end))
		last := min(int(hi/width), n-1)
		for b := int(lo / width); b <= last; b++ {
			overlap := min(hi, float64(b+1)*width) - max(lo, float64(b)*width)
			if overlap > 0 {
				out[b] += float64(r.Threads) * overlap / width
			}
		}
	}
	return out
}

// Sparkline renders values as a Unicode bar chart scaled to top (values
// above top clamp to the tallest bar, negatives to the lowest). Empty input
// yields an empty string.
func Sparkline(vals []float64, top float64) string {
	if len(vals) == 0 || top <= 0 {
		return ""
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteRune(levels[max(0, min(int(v/top*float64(len(levels)-1)), len(levels)-1))])
	}
	return sb.String()
}

// WriteOffloadSVG renders the offloads as a self-contained SVG Gantt chart:
// one row per job, a bar per offload, bar height proportional to thread
// width. Aborted offloads are red; open ones run to the chart edge with a
// dashed outline, so a mid-run snapshot reads differently from a closed
// bar. The visual analogue of the paper's Figs. 2–3.
func WriteOffloadSVG(w io.Writer, spans []*Span, names map[int64]string, hwThreads int64) error {
	const (
		width     = 900
		rowHeight = 28
		barMax    = 22 // tallest bar, for a full-width offload
		leftPad   = 110
		topPad    = 30
		bottomPad = 30
	)
	rows := offloadRows(spans)
	if len(rows) == 0 {
		_, err := io.WriteString(w, `<svg xmlns="http://www.w3.org/2000/svg" width="300" height="40"><text x="10" y="25">no offload activity</text></svg>`+"\n")
		return err
	}
	// The axis must cover open offloads too.
	end := closedEnd(rows)
	for _, r := range rows {
		if r.Open {
			end = max(end, r.Start)
		}
	}
	if end == 0 {
		end = units.Second // only open offloads at t=0: nominal axis span
	}
	jobs := rowJobs(rows)
	rowOf := make(map[int64]int, len(jobs))
	for i, id := range jobs {
		rowOf[id] = i
	}
	height := topPad + rowHeight*len(jobs) + bottomPad
	scale := float64(width-leftPad-10) / float64(end)

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif" font-size="11">`+"\n", width, height)
	fmt.Fprintf(&sb, `<rect width="%d" height="%d" fill="white"/>`+"\n", width, height)
	fmt.Fprintf(&sb, `<text x="%d" y="18" font-size="13">Coprocessor offload timeline (%d jobs, %.1f s)</text>`+"\n",
		leftPad, len(jobs), end.Seconds())

	// Row guides and labels.
	for i, id := range jobs {
		y := topPad + i*rowHeight
		fmt.Fprintf(&sb, `<text x="5" y="%d">%s</text>`+"\n", y+barMax-6, html.EscapeString(jobName(names, id)))
		fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#eee"/>`+"\n",
			leftPad, y+barMax, width-10, y+barMax)
	}

	for _, r := range rows {
		row := rowOf[r.job]
		color := palette[row%len(palette)]
		h := max(int(min(float64(r.Threads)/float64(hwThreads), 1)*barMax), 3)
		x := leftPad + int(float64(r.Start)*scale)
		y := topPad + row*rowHeight + (barMax - h)
		name := html.EscapeString(jobName(names, r.job))
		if r.Open {
			fmt.Fprintf(&sb,
				`<rect x="%d" y="%d" width="%d" height="%d" fill="%s" fill-opacity="0.45" stroke="%s" stroke-dasharray="4,3"><title>%s: %d threads, started %.2fs (still running)</title></rect>`+"\n",
				x, y, max(width-10-x, 1), h, color, color, name, r.Threads, r.Start.Seconds())
			continue
		}
		if !r.Completed {
			color = "#d62728"
		}
		fmt.Fprintf(&sb,
			`<rect x="%d" y="%d" width="%d" height="%d" fill="%s"><title>%s: %d threads, %.2fs-%.2fs</title></rect>`+"\n",
			x, y, max(int(float64(r.End-r.Start)*scale), 1), h, color, name, r.Threads, r.Start.Seconds(), r.End.Seconds())
	}

	// Time axis.
	axisY := topPad + rowHeight*len(jobs) + 8
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#444"/>`+"\n", leftPad, axisY, width-10, axisY)
	for i := 0; i <= 6; i++ {
		t := float64(end) * float64(i) / 6
		fmt.Fprintf(&sb, `<text x="%d" y="%d" text-anchor="middle" fill="#444">%.0fs</text>`+"\n",
			leftPad+int(t*scale), axisY+14, units.Tick(t).Seconds())
	}
	sb.WriteString("</svg>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
