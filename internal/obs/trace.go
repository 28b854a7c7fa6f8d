package obs

import (
	"io"
	"strconv"

	"phishare/internal/units"
)

// Event is one structured trace event on the simulated timeline.
type Event struct {
	At     units.Tick // simulated time, ms
	Layer  string     // emitting layer: condor, core, cosmic, phi
	Kind   string     // event kind within the layer, e.g. "negotiation_start"
	Fields []Field
}

// field returns the first field named key.
func (e Event) field(key string) (Field, bool) {
	for _, f := range e.Fields {
		if f.Key == key {
			return f, true
		}
	}
	return Field{}, false
}

// Int returns the named integer field; ok is false when the event has no
// field of that name or it is not an integer.
func (e Event) Int(key string) (v int64, ok bool) {
	if f, found := e.field(key); found {
		return f.intVal()
	}
	return 0, false
}

// Str returns the named string field, or "" when the event has no string
// field of that name.
func (e Event) Str(key string) string {
	f, _ := e.field(key)
	v, _ := f.strVal()
	return v
}

// Bool returns the named boolean field, or false when the event has no
// boolean field of that name.
func (e Event) Bool(key string) bool {
	f, _ := e.field(key)
	v, ok := f.boolVal()
	return ok && v
}

// AppendJSON appends the event as one JSON object. Keys time_ms, layer and
// kind come first, then the fields in emission order.
func (e Event) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"time_ms":`...)
	buf = strconv.AppendInt(buf, int64(e.At), 10)
	buf = append(buf, `,"layer":`...)
	buf = appendJSONString(buf, e.Layer)
	buf = append(buf, `,"kind":`...)
	buf = appendJSONString(buf, e.Kind)
	for _, f := range e.Fields {
		buf = append(buf, ',')
		buf = appendJSONString(buf, f.Key)
		buf = append(buf, ':')
		buf = appendJSONValue(buf, f)
	}
	return append(buf, '}')
}

// EventSink consumes trace events the moment they reach canonical order.
// Consumers registered on a Trace see every event exactly once, in emission
// order. Streaming writers (StreamSink) and the span builder (SpanBuilder)
// are EventSinks.
//
// The Event's Fields slice is owned by the trace: in streaming mode it is a
// reused scratch buffer, and an id-list field may point at the emitter's
// reused scratch slice, both valid only for the duration of Consume. Sinks
// that retain field data must copy the values out (both shipped sinks do).
type EventSink interface {
	Consume(Event)
}

// Trace accumulates structured events in canonical emission order. A nil
// *Trace drops every Emit. With AddConsumer, events are additionally handed
// to streaming consumers as they arrive; with SetStreaming(true) the trace
// stops retaining events after consumers have seen them, bounding resident
// memory for arbitrarily long runs (emit-and-drop).
type Trace struct {
	// chunks holds the retained events in fixed-capacity blocks. Chunking
	// beats one growing slice on hot paths: appends never copy earlier
	// events, and no 2×-growth garbage accrues behind the live array —
	// a full end-to-end run emits thousands of events, and the abandoned
	// growth copies were the single largest GC burden of instrumentation.
	chunks [][]Event
	n      int
	// farena holds retained events' Field data in fixed-capacity blocks.
	// Emit copies the caller's variadic fields here instead of keeping the
	// argument slice, so the slice never escapes at the emitting site —
	// the per-event []Field allocation at every instrumented hot path
	// becomes a stack frame, and only the amortized arena blocks hit the
	// heap.
	farena [][]Field
	// idArena holds retained id-list fields' elements the same way, so an
	// emitting site can pass a reused scratch slice to IDs.
	idArena [][]int
	// scratch is the streaming-mode field buffer, reused across events
	// (nothing is retained, so consumers see a slice valid only for the
	// duration of Consume — both shipped sinks read it synchronously).
	scratch   []Field
	consumers []EventSink
	streaming bool
}

// traceChunk is the per-block event capacity: big enough to amortize the
// block allocations, small enough that short traces stay cheap.
// fieldChunk and idChunk size the field and id arena blocks the same way.
const (
	traceChunk = 1024
	fieldChunk = 4096
	idChunk    = 4096
)

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// AddConsumer registers a streaming consumer. Safe on a nil trace (no-op).
func (t *Trace) AddConsumer(c EventSink) {
	if t == nil {
		return
	}
	t.consumers = append(t.consumers, c)
}

// SetStreaming switches the trace to emit-and-drop: events still reach every
// registered consumer in canonical order, but are not retained, so a
// million-event run holds O(1) trace memory. WriteJSONL then writes nothing;
// attach a StreamSink to keep the JSONL stream.
func (t *Trace) SetStreaming(on bool) {
	if t == nil {
		return
	}
	t.streaming = on
}

// Emit appends one event. Safe on a nil trace, but callers on hot paths
// should guard with a nil check so the variadic fields are never built
// when tracing is off.
func (t *Trace) Emit(at units.Tick, layer, kind string, fields ...Field) {
	if t == nil {
		return
	}
	// Copy the fields out of the argument slice before anything retains
	// them: the caller's variadic slice then provably does not escape, so
	// every guarded emit site builds it on the stack.
	var fs []Field
	if t.streaming {
		t.scratch = append(t.scratch[:0], fields...)
		fs = t.scratch
	} else {
		fs = t.retainFields(fields)
	}
	e := Event{At: at, Layer: layer, Kind: kind, Fields: fs}
	for _, c := range t.consumers {
		c.Consume(e)
	}
	if t.streaming {
		return
	}
	if len(t.chunks) == 0 || len(t.chunks[len(t.chunks)-1]) == traceChunk {
		t.chunks = append(t.chunks, make([]Event, 0, traceChunk))
	}
	last := len(t.chunks) - 1
	t.chunks[last] = append(t.chunks[last], e)
	t.n++
}

// retainFields copies fields into the arena and returns the arena-backed
// slice, capacity-clipped so a later event's append can never overlap it.
func (t *Trace) retainFields(fields []Field) []Field {
	if len(fields) == 0 {
		return nil
	}
	last := len(t.farena) - 1
	if last < 0 || cap(t.farena[last])-len(t.farena[last]) < len(fields) {
		t.farena = append(t.farena, make([]Field, 0, max(fieldChunk, len(fields))))
		last++
	}
	blk := append(t.farena[last], fields...)
	t.farena[last] = blk
	start := len(blk) - len(fields)
	out := blk[start:len(blk):len(blk)]
	for i, f := range out {
		if ids, ok := f.idsVal(); ok && len(ids) > 0 {
			out[i] = IDs(f.Key, t.retainIDs(ids))
		}
	}
	return out
}

// retainIDs copies ids into the id arena, as retainFields does fields.
func (t *Trace) retainIDs(ids []int) []int {
	last := len(t.idArena) - 1
	if last < 0 || cap(t.idArena[last])-len(t.idArena[last]) < len(ids) {
		t.idArena = append(t.idArena, make([]int, 0, max(idChunk, len(ids))))
		last++
	}
	blk := append(t.idArena[last], ids...)
	t.idArena[last] = blk
	return blk[len(blk)-len(ids):]
}

// Len returns the number of recorded events (0 for nil).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// WriteJSONL streams the trace as one JSON object per line. A nil trace
// writes nothing.
func (t *Trace) WriteJSONL(w io.Writer) error {
	if t == nil {
		return nil
	}
	buf := make([]byte, 0, 256)
	for _, c := range t.chunks {
		for _, e := range c {
			buf = e.AppendJSON(buf[:0])
			buf = append(buf, '\n')
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	return nil
}
