package obs

import (
	"sort"

	"phishare/internal/units"
)

// Causal job spans.
//
// A Span is one job's life reconstructed from the canonical trace stream:
// queue → match → dispatch → admit → offload[i] → complete, with OOM-kill,
// container-kill, crash and resubmit edges from the faults and COSMIC
// layers. The builder is a streaming EventSink, so spans assemble in one
// pass over the canonical stream — they work identically on a retained
// Trace (SpansFromTrace) and on an emit-and-drop streaming run (register
// the builder with Trace.AddConsumer before the run). Because the stream is
// canonically ordered and bit-identical across runs, so are the spans.

// Offload is one coprocessor occupancy interval within an attempt.
type Offload struct {
	Device    string     // slot name, e.g. "slot1@node3"
	Start     units.Tick // device occupancy start (after any COSMIC queueing)
	End       units.Tick // occupancy end (completion or abort)
	Threads   int64
	Completed bool
	QueueWait units.Tick // COSMIC HOL wait immediately before Start
	Open      bool       // started but never ended (truncated stream)
}

// Attempt is one match→execution of a job on a machine. A crashed attempt
// ends at the crash; a resubmit opens a new attempt on the next match.
type Attempt struct {
	Machine         string // "" (and Match -1) on a runner-only stream, which has no match
	Match           units.Tick
	Execute         units.Tick // dispatch latency elapsed, host process starts
	End             units.Tick // terminate or crash instant
	Crashed         bool
	OOMKilled       bool // a phi OOM kill hit this job during the attempt
	ContainerKilled bool // a COSMIC container cap kill hit this job
	AdmitWait       units.Tick
	Offloads        []Offload
	Open            bool // matched but never terminated (truncated stream)
}

// Span is one job's full history.
type Span struct {
	Job      int64
	Submit   units.Tick
	End      units.Tick
	Outcome  string // "completed", "failed", "stalled"; "" while running
	Attempts []*Attempt
}

// SpanBuilder assembles spans from trace events. Register it as a consumer
// (Trace.AddConsumer) before the run for streaming assembly, or feed a
// retained trace through SpansFromTrace afterwards.
type SpanBuilder struct {
	jobs map[int64]*Span
	// pendingWait holds a COSMIC offload_dispatched HOL wait that applies
	// to the job's next phi offload_start (the two events are adjacent in
	// causal order; at most one offload per job is in flight).
	pendingWait map[int64]units.Tick
}

// NewSpanBuilder returns an empty builder.
func NewSpanBuilder() *SpanBuilder {
	return &SpanBuilder{
		jobs:        make(map[int64]*Span),
		pendingWait: make(map[int64]units.Tick),
	}
}

// SpansFromTrace builds spans post-hoc from a retained trace. Returns nil
// for a nil or streamed (unretained) trace.
func SpansFromTrace(t *Trace) []*Span {
	if t == nil {
		return nil
	}
	b := NewSpanBuilder()
	for _, e := range t.Events() {
		b.Consume(e)
	}
	return b.Spans()
}

// Spans returns the assembled spans sorted by job id. Safe to call
// mid-stream; open attempts/offloads are marked Open.
func (b *SpanBuilder) Spans() []*Span {
	out := make([]*Span, 0, len(b.jobs))
	for _, s := range b.jobs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Job < out[j].Job })
	return out
}

// span returns (creating if needed) the job's span.
func (b *SpanBuilder) span(jobID int64, at units.Tick) *Span {
	s := b.jobs[jobID]
	if s == nil {
		s = &Span{Job: jobID, Submit: at, End: -1}
		b.jobs[jobID] = s
	}
	return s
}

// cur returns the span's open attempt, or nil.
func (s *Span) cur() *Attempt {
	if n := len(s.Attempts); n > 0 && s.Attempts[n-1].Open {
		return s.Attempts[n-1]
	}
	return nil
}

// Consume implements EventSink.
func (b *SpanBuilder) Consume(e Event) {
	jobID, ok := fieldInt(e, "job")
	if !ok {
		return
	}
	switch e.Layer {
	case LayerCondor:
		switch e.Kind {
		case "submit":
			b.span(jobID, e.At).Submit = e.At
		case "match":
			s := b.span(jobID, e.At)
			s.Attempts = append(s.Attempts, &Attempt{
				Machine: fieldString(e, "machine"),
				Match:   e.At, Execute: -1, End: -1, Open: true,
			})
		case "execute":
			if a := b.span(jobID, e.At).cur(); a != nil {
				a.Execute = e.At
			}
		case "crash":
			s := b.span(jobID, e.At)
			if a := s.cur(); a != nil {
				a.End, a.Crashed, a.Open = e.At, true, false
			}
			s.End, s.Outcome = e.At, "failed"
		case "resubmit":
			s := b.span(jobID, e.At)
			s.End, s.Outcome = -1, ""
		case "terminate":
			s := b.span(jobID, e.At)
			if a := s.cur(); a != nil {
				a.End, a.Open = e.At, false
			}
			s.End, s.Outcome = e.At, "completed"
		case "stall_abort":
			s := b.span(jobID, e.At)
			s.End, s.Outcome = e.At, "stalled"
		}
	case LayerCosmic:
		switch e.Kind {
		case "admitted":
			if a := b.span(jobID, e.At).cur(); a != nil {
				if w, ok := fieldTick(e, "wait_ms"); ok {
					a.AdmitWait += w
				}
			}
		case "offload_dispatched":
			if w, ok := fieldTick(e, "wait_ms"); ok {
				b.pendingWait[jobID] = w
			}
		case "container_kill":
			if a := b.span(jobID, e.At).cur(); a != nil {
				a.ContainerKilled = true
			}
		}
	case LayerPhi:
		switch e.Kind {
		case "offload_start":
			s := b.span(jobID, e.At)
			a := s.cur()
			if a == nil {
				// A runner-only stream (no condor pool, as in the Figs. 2–3
				// pairs) never matches: keep its offloads on a machine-less
				// attempt.
				a = &Attempt{Match: -1, Execute: -1, End: -1, Open: true}
				s.Attempts = append(s.Attempts, a)
			}
			threads, _ := fieldInt(e, "threads")
			wait := b.pendingWait[jobID]
			delete(b.pendingWait, jobID)
			a.Offloads = append(a.Offloads, Offload{
				Device: fieldString(e, "device"),
				Start:  e.At, End: -1,
				Threads:   threads,
				QueueWait: wait,
				Open:      true,
			})
		case "offload_end":
			a := b.span(jobID, e.At).cur()
			if a == nil {
				return
			}
			for i := len(a.Offloads) - 1; i >= 0; i-- {
				if o := &a.Offloads[i]; o.Open {
					o.End, o.Open = e.At, false
					o.Completed, _ = fieldBool(e, "completed")
					break
				}
			}
		case "oom_kill":
			if a := b.span(jobID, e.At).cur(); a != nil {
				a.OOMKilled = true
			}
		}
	}
}

// Field extraction helpers. Trace fields carry the emitting site's Go types
// (int job ids, units.Tick waits, units.Threads counts); spans normalize to
// int64/units.Tick.

func fieldInt(e Event, key string) (int64, bool) {
	switch v := e.Field(key).(type) {
	case int:
		return int64(v), true
	case int64:
		return v, true
	case uint64:
		return int64(v), true
	case units.Tick:
		return int64(v), true
	case units.Threads:
		return int64(v), true
	case units.MB:
		return int64(v), true
	case float64:
		return int64(v), true
	}
	return 0, false
}

func fieldTick(e Event, key string) (units.Tick, bool) {
	n, ok := fieldInt(e, key)
	return units.Tick(n), ok
}

func fieldString(e Event, key string) string {
	s, _ := e.Field(key).(string)
	return s
}

func fieldBool(e Event, key string) (bool, bool) {
	v, ok := e.Field(key).(bool)
	return v, ok
}
