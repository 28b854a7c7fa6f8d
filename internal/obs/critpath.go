package obs

import (
	"fmt"
	"io"
	"sort"

	"phishare/internal/units"
)

// Critical-path analysis: where did the makespan go?
//
// Starting from the job whose end defines the makespan, the analyzer walks
// its last attempt backwards, decomposing it into phase segments (dispatch
// latency, admission wait, host compute, COSMIC offload queueing, device
// occupancy), then follows the job's queue wait back in time. A queue wait
// is blamed on its blocker: the job whose attempt on the matched machine
// finished latest before the match — the completion that freed the capacity
// this job was waiting for — and the walk continues through the blocker's
// own attempt, chaining across jobs until the cluster's start. This blocker
// heuristic is an approximation (negotiation batching means several
// completions can unblock one match), but it is deterministic, cheap, and
// attributes every segment of the timeline to a concrete phase on a
// concrete machine or device.

// Segment is one phase interval on the critical path.
type Segment struct {
	Job   int64
	Kind  string // "queue", "dispatch", "admit-wait", "host", "offload-queue", "offload"
	Where string // machine or device name; "" for unattributed queue time
	Start units.Tick
	End   units.Tick
}

// Duration is the segment's length.
func (s Segment) Duration() units.Tick { return s.End - s.Start }

// Share is one aggregation bucket of critical-path time.
type Share struct {
	Key   string
	Total units.Tick
	Frac  float64 // of the covered critical-path time
}

// CriticalPath is the analyzer's result.
type CriticalPath struct {
	Makespan units.Tick
	TailJob  int64 // the job whose end defines the makespan
	// Segments is the chain in chronological order. Segments cover the
	// timeline from the first chained job's match back at (or near) t=0 up
	// to the makespan; Covered is their summed duration (gaps appear where
	// no blocker could be identified).
	Segments []Segment
	Covered  units.Tick
	// ByKind and ByWhere aggregate segment time by phase kind and by
	// machine/device, sorted by descending share (ties by key).
	ByKind  []Share
	ByWhere []Share
}

// AnalyzeCriticalPath walks the spans of one run. Returns nil if no span
// completed.
func AnalyzeCriticalPath(spans []*Span) *CriticalPath {
	// Tail job: latest End, ties to the smallest job id (deterministic).
	var tail *Span
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		if tail == nil || s.End > tail.End || (s.End == tail.End && s.Job < tail.Job) {
			tail = s
		}
	}
	if tail == nil {
		return nil
	}
	cp := &CriticalPath{Makespan: tail.End, TailJob: tail.Job}

	// byMachine indexes closed attempts for blocker lookups.
	type done struct {
		span *Span
		att  *Attempt
	}
	byMachine := map[string][]done{}
	for _, s := range spans {
		for _, a := range s.Attempts {
			if !a.Open && a.Machine != "" && a.End >= 0 {
				byMachine[a.Machine] = append(byMachine[a.Machine], done{s, a})
			}
		}
	}

	var chain []Segment // built newest-first, reversed at the end
	visited := map[int64]bool{}
	cur, att := tail, tail.Attempts[len(tail.Attempts)-1]
	for cur != nil && !visited[cur.Job] {
		visited[cur.Job] = true
		chain = append(chain, attemptSegments(cur.Job, att)...)

		// Queue wait behind this attempt: from the job's submit (or its
		// previous attempt's crash) to the match.
		qStart := cur.Submit
		for i, a := range cur.Attempts {
			if a == att && i > 0 {
				qStart = cur.Attempts[i-1].End
				break
			}
		}
		if att.Match <= qStart {
			break // matched instantly; nothing upstream of this job
		}

		// Blocker: latest attempt on the same machine ending in
		// (qStart, match]; ties to the smallest job id.
		var blk *done
		for _, d := range byMachine[att.Machine] {
			if d.span == cur || d.att.End <= qStart || d.att.End > att.Match || visited[d.span.Job] {
				continue
			}
			if blk == nil || d.att.End > blk.att.End ||
				(d.att.End == blk.att.End && d.span.Job < blk.span.Job) {
				d := d
				blk = &d
			}
		}
		if blk == nil {
			chain = append(chain, Segment{
				Job: cur.Job, Kind: "queue", Where: att.Machine,
				Start: qStart, End: att.Match,
			})
			break
		}
		// The wait from the blocker's completion to this match is
		// negotiation/queue latency; before that, the blocker itself is the
		// critical work.
		chain = append(chain, Segment{
			Job: cur.Job, Kind: "queue", Where: att.Machine,
			Start: blk.att.End, End: att.Match,
		})
		cur, att = blk.span, blk.att
	}

	// Reverse into chronological order and aggregate.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	cp.Segments = chain
	kind := map[string]units.Tick{}
	where := map[string]units.Tick{}
	for _, s := range chain {
		if d := s.Duration(); d > 0 {
			cp.Covered += d
			kind[s.Kind] += d
			where[s.Where] += d
		}
	}
	cp.ByKind = shares(kind, cp.Covered)
	cp.ByWhere = shares(where, cp.Covered)
	return cp
}

// attemptSegments decomposes one attempt into segments, newest first.
func attemptSegments(jobID int64, a *Attempt) []Segment {
	end := a.End
	if end < 0 {
		return nil
	}
	// Build forward, then reverse.
	var fwd []Segment
	add := func(kind, where string, start, end units.Tick) {
		if end > start {
			fwd = append(fwd, Segment{Job: jobID, Kind: kind, Where: where, Start: start, End: end})
		}
	}
	exec := a.Execute
	if exec < 0 {
		exec = a.Match
	}
	add("dispatch", a.Machine, a.Match, exec)
	pos := exec
	if a.AdmitWait > 0 {
		add("admit-wait", a.Machine, pos, pos+a.AdmitWait)
		pos += a.AdmitWait
	}
	for i := range a.Offloads {
		o := &a.Offloads[i]
		oEnd := o.End
		if o.Open {
			oEnd = end
		}
		qStart := o.Start - o.QueueWait
		add("host", a.Machine, pos, qStart)
		add("offload-queue", o.Device, qStart, o.Start)
		add("offload", o.Device, o.Start, oEnd)
		if oEnd > pos {
			pos = oEnd
		}
	}
	add("host", a.Machine, pos, end)
	for i, j := 0, len(fwd)-1; i < j; i, j = i+1, j-1 {
		fwd[i], fwd[j] = fwd[j], fwd[i]
	}
	return fwd
}

// shares converts an aggregation map into a sorted Share list.
func shares(m map[string]units.Tick, total units.Tick) []Share {
	out := make([]Share, 0, len(m))
	for k, v := range m {
		out = append(out, Share{Key: k, Total: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Key < out[j].Key
	})
	if total > 0 {
		for i := range out {
			out[i].Frac = float64(out[i].Total) / float64(total)
		}
	}
	return out
}

// WriteText renders the attribution and chain as a human-readable report.
func (cp *CriticalPath) WriteText(w io.Writer) error {
	if cp == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "critical path: makespan %.1f s, tail job %d, covered %.1f s (%.1f%%)\n",
		cp.Makespan.Seconds(), cp.TailJob, cp.Covered.Seconds(),
		100*frac(cp.Covered, cp.Makespan)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "where did the makespan go?\n"); err != nil {
		return err
	}
	for _, s := range cp.ByKind {
		if _, err := fmt.Fprintf(w, "  %5.1f%%  %-14s %.1f s\n", 100*s.Frac, s.Key, s.Total.Seconds()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "busiest machines/devices on the path:\n"); err != nil {
		return err
	}
	for i, s := range cp.ByWhere {
		if i >= 8 {
			break
		}
		name := s.Key
		if name == "" {
			name = "(unattributed)"
		}
		if _, err := fmt.Fprintf(w, "  %5.1f%%  %-22s %.1f s\n", 100*s.Frac, name, s.Total.Seconds()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "chain (%d segments, chronological):\n", len(cp.Segments)); err != nil {
		return err
	}
	for _, s := range cp.Segments {
		where := s.Where
		if where != "" {
			where = " @ " + where
		}
		if _, err := fmt.Fprintf(w, "  [%10.1f .. %10.1f s] job %-6d %-14s%s\n",
			s.Start.Seconds(), s.End.Seconds(), s.Job, s.Kind, where); err != nil {
			return err
		}
	}
	return nil
}

func frac(a, b units.Tick) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
