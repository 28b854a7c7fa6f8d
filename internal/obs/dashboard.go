package obs

import (
	"fmt"
	"html"
	"io"
	"sort"
	"strings"

	"phishare/internal/units"
)

const (
	sparkW = 560
	sparkH = 48
)

// WriteDashboard renders the observer's full state — counters, gauges,
// histograms, sampled time series as SVG sparklines, and an event-count
// breakdown — as one self-contained HTML page. Deterministic: series and
// tables are sorted, so the same run always produces the same bytes.
func (o *Observer) WriteDashboard(w io.Writer, title string) error {
	if o == nil {
		return nil
	}
	var sb strings.Builder
	esc := html.EscapeString
	sb.WriteString("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n")
	fmt.Fprintf(&sb, "<title>%s</title>\n", esc(title))
	sb.WriteString(`<style>
body { font-family: sans-serif; font-size: 13px; margin: 24px; color: #222; }
h1 { font-size: 18px; } h2 { font-size: 15px; margin-top: 28px; border-bottom: 1px solid #ddd; padding-bottom: 4px; }
table { border-collapse: collapse; margin: 8px 0; }
th, td { border: 1px solid #ddd; padding: 3px 10px; text-align: left; font-size: 12px; }
th { background: #f5f5f5; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.series { margin: 10px 0; }
.series .name { font-family: monospace; font-size: 12px; }
.series .stats { color: #777; font-size: 11px; margin-left: 8px; }
</style>
</head><body>
`)
	fmt.Fprintf(&sb, "<h1>%s</h1>\n", esc(title))

	smp := o.sampler
	var endT units.Tick
	if smp != nil && len(smp.times) > 0 {
		endT = smp.times[len(smp.times)-1]
	}
	fmt.Fprintf(&sb, "<p>%d metric series &middot; %d trace events &middot; %d samples",
		o.seriesCount(), o.Trace.Len(), smp.Samples())
	if endT > 0 {
		fmt.Fprintf(&sb, " over %.1f simulated seconds", endT.Seconds())
	}
	sb.WriteString("</p>\n")

	o.writeSparklines(&sb)
	o.writeMakespanPanel(&sb)
	o.writeSchedulerCachePanel(&sb)
	o.writeCounterTable(&sb)
	o.writeGaugeTable(&sb)
	o.writeHistogramTable(&sb)
	o.writeEventTable(&sb)

	sb.WriteString("</body></html>\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func (o *Observer) seriesCount() int {
	if o.Reg == nil {
		return 0
	}
	return len(o.Reg.counters) + len(o.Reg.gauges) + len(o.Reg.hists)
}

func (o *Observer) writeSparklines(sb *strings.Builder) {
	smp := o.sampler
	if smp == nil || len(smp.rows) == 0 {
		return
	}
	sb.WriteString("<h2>Time series</h2>\n")
	for i, name := range smp.names {
		vals := make([]float64, len(smp.rows))
		minV, maxV := smp.rows[0][i], smp.rows[0][i]
		sum := 0.0
		for j, row := range smp.rows {
			v := row[i]
			vals[j] = v
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
			sum += v
		}
		mean := sum / float64(len(vals))
		last := vals[len(vals)-1]
		fmt.Fprintf(sb, "<div class=\"series\"><span class=\"name\">%s</span>"+
			"<span class=\"stats\">min %s &middot; mean %s &middot; max %s &middot; last %s</span><br>\n",
			html.EscapeString(name), formatFloat(minV), formatFloat(mean), formatFloat(maxV), formatFloat(last))
		writeSparkSVG(sb, vals, palette[i%len(palette)])
		sb.WriteString("</div>\n")
	}
}

// writeSparkSVG draws one series as a filled polyline scaled to its own
// [0, max] range (floor of 1 so flat-zero series stay flat lines).
func writeSparkSVG(sb *strings.Builder, vals []float64, color string) {
	maxV := 1.0
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	fmt.Fprintf(sb, `<svg width="%d" height="%d" font-family="sans-serif" font-size="10">`, sparkW, sparkH)
	fmt.Fprintf(sb, `<rect width="%d" height="%d" fill="#fafafa" stroke="#ddd"/>`, sparkW, sparkH)
	step := float64(sparkW-2) / float64(maxInt(len(vals)-1, 1))
	var pts strings.Builder
	for j, v := range vals {
		x := 1 + float64(j)*step
		y := float64(sparkH-2) - v/maxV*float64(sparkH-6)
		fmt.Fprintf(&pts, "%.1f,%.1f ", x, y)
	}
	// Closed area under the line, then the line itself on top.
	fmt.Fprintf(sb, `<polygon points="1,%d %s%.1f,%d" fill="%s" fill-opacity="0.15"/>`,
		sparkH-2, pts.String(), 1+float64(len(vals)-1)*step, sparkH-2, color)
	fmt.Fprintf(sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.2"/>`,
		strings.TrimRight(pts.String(), " "), color)
	sb.WriteString("</svg>\n")
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// writeMakespanPanel renders the "Where did the makespan go?" scorecard:
// the critical-path phase attribution assembled from the retained trace's
// job spans. Omitted when the trace holds no condor lifecycle events (a run
// without a pool, or a streamed trace that retained nothing) — dashboards
// for such runs simply lack the panel.
func (o *Observer) writeMakespanPanel(sb *strings.Builder) {
	cp := AnalyzeCriticalPath(SpansFromTrace(o.Trace))
	if cp == nil || len(cp.Segments) == 0 {
		return
	}
	sb.WriteString("<h2>Where did the makespan go?</h2>\n")
	fmt.Fprintf(sb, "<p>Critical path ending at job %d: %.1f simulated seconds, %.1f%% attributed across %d segments.</p>\n",
		cp.TailJob, cp.Makespan.Seconds(), 100*frac(cp.Covered, cp.Makespan), len(cp.Segments))
	sb.WriteString("<table><tr><th>phase</th><th>time</th><th>share</th><th></th></tr>\n")
	for _, s := range cp.ByKind {
		barW := int(s.Frac * 240)
		fmt.Fprintf(sb, "<tr><td>%s</td><td class=\"num\">%.1f s</td><td class=\"num\">%.1f%%</td>"+
			"<td><svg width=\"240\" height=\"12\"><rect width=\"%d\" height=\"12\" fill=\"%s\"/></svg></td></tr>\n",
			html.EscapeString(s.Key), s.Total.Seconds(), 100*s.Frac, barW, palette[0])
	}
	sb.WriteString("</table>\n")
	if len(cp.ByWhere) > 0 {
		sb.WriteString("<table><tr><th>machine / device on the path</th><th>time</th><th>share</th></tr>\n")
		for i, s := range cp.ByWhere {
			if i >= 8 {
				break
			}
			name := s.Key
			if name == "" {
				name = "(unattributed)"
			}
			fmt.Fprintf(sb, "<tr><td><code>%s</code></td><td class=\"num\">%.1f s</td><td class=\"num\">%.1f%%</td></tr>\n",
				html.EscapeString(name), s.Total.Seconds(), 100*s.Frac)
		}
		sb.WriteString("</table>\n")
	}
}

// writeSchedulerCachePanel renders the matchmaking/allocation fast-path
// scorecard: how much work the autocluster grouping, the dirty-cycle
// short-circuit and the match cache actually avoided in this run. Raw
// counts live in the Counters table below; this panel derives the headline
// ratios. Omitted entirely when none of the underlying series exist (e.g. a
// run that never built a condor pool).
func (o *Observer) writeSchedulerCachePanel(sb *strings.Builder) {
	if o.Reg == nil {
		return
	}
	cnt := func(id string) (int64, bool) {
		c, ok := o.Reg.counters[id]
		if !ok {
			return 0, false
		}
		return c.Value(), true
	}
	type row struct {
		name, detail string
		num, den     int64
		ok           bool
	}
	saved, okSaved := cnt("condor_autocluster_evals_saved_total")
	matches, _ := cnt("condor_matches_total")
	skips, okSkips := cnt("condor_negotiation_skips_total")
	negs, _ := cnt("condor_negotiations_total")
	hits, okHits := cnt("condor_match_cache_hits_total")
	misses, _ := cnt("condor_match_cache_misses_total")
	invs, _ := cnt("condor_match_cache_invalidations_total")
	rows := []row{
		{"autocluster evals saved", "Match evaluations answered by a sibling job's verdict", saved, saved + matches, okSaved},
		{"dirty-cycle skips", "negotiation cycles short-circuited as provable no-ops", skips, skips + negs, okSkips},
		{"match-cache hit rate", "cache consultations answered without re-evaluating", hits, hits + misses + invs, okHits},
	}
	any := false
	for _, r := range rows {
		any = any || r.ok
	}
	if !any {
		return
	}
	sb.WriteString("<h2>Scheduler caches</h2>\n<table><tr><th>fast path</th><th>saved</th><th>of</th><th>rate</th><th></th></tr>\n")
	for _, r := range rows {
		if !r.ok {
			continue
		}
		rate := "&ndash;"
		if r.den > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(r.num)/float64(r.den))
		}
		fmt.Fprintf(sb, "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td>%s</td></tr>\n",
			html.EscapeString(r.name), r.num, r.den, rate, html.EscapeString(r.detail))
	}
	sb.WriteString("</table>\n")
}

func (o *Observer) writeCounterTable(sb *strings.Builder) {
	if o.Reg == nil || len(o.Reg.counters) == 0 {
		return
	}
	sb.WriteString("<h2>Counters</h2>\n<table><tr><th>series</th><th>value</th></tr>\n")
	for _, id := range sortedKeys(o.Reg.counters) {
		fmt.Fprintf(sb, "<tr><td><code>%s</code></td><td class=\"num\">%d</td></tr>\n",
			html.EscapeString(id), o.Reg.counters[id].Value())
	}
	sb.WriteString("</table>\n")
}

func (o *Observer) writeGaugeTable(sb *strings.Builder) {
	if o.Reg == nil || len(o.Reg.gauges) == 0 {
		return
	}
	sb.WriteString("<h2>Gauges (final)</h2>\n<table><tr><th>series</th><th>value</th></tr>\n")
	for _, id := range sortedKeys(o.Reg.gauges) {
		fmt.Fprintf(sb, "<tr><td><code>%s</code></td><td class=\"num\">%s</td></tr>\n",
			html.EscapeString(id), formatFloat(o.Reg.gauges[id].Value()))
	}
	sb.WriteString("</table>\n")
}

func (o *Observer) writeHistogramTable(sb *strings.Builder) {
	if o.Reg == nil || len(o.Reg.hists) == 0 {
		return
	}
	sb.WriteString("<h2>Histograms</h2>\n<table><tr><th>series</th><th>count</th><th>mean</th><th>buckets (&le;bound: n)</th></tr>\n")
	for _, id := range sortedKeys(o.Reg.hists) {
		h := o.Reg.hists[id]
		var bs strings.Builder
		for i, b := range h.bounds {
			if h.counts[i] == 0 {
				continue
			}
			fmt.Fprintf(&bs, "&le;%s: %d&ensp;", formatFloat(b), h.counts[i])
		}
		if h.counts[len(h.bounds)] > 0 {
			fmt.Fprintf(&bs, "+Inf: %d", h.counts[len(h.bounds)])
		}
		fmt.Fprintf(sb, "<tr><td><code>%s</code></td><td class=\"num\">%d</td><td class=\"num\">%.3g</td><td>%s</td></tr>\n",
			html.EscapeString(id), h.n, h.Mean(), bs.String())
	}
	sb.WriteString("</table>\n")
}

func (o *Observer) writeEventTable(sb *strings.Builder) {
	if o.Trace.Len() == 0 {
		return
	}
	counts := map[string]int{}
	for _, c := range o.Trace.chunks {
		for _, e := range c {
			counts[e.Layer+"/"+e.Kind]++
		}
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sb.WriteString("<h2>Trace events</h2>\n<table><tr><th>layer/kind</th><th>count</th></tr>\n")
	for _, k := range keys {
		fmt.Fprintf(sb, "<tr><td><code>%s</code></td><td class=\"num\">%d</td></tr>\n",
			html.EscapeString(k), counts[k])
	}
	sb.WriteString("</table>\n")
}
