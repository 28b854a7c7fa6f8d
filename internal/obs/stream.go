package obs

import "io"

// StreamSink is a bounded-memory JSONL trace writer: each event is
// serialized into one reusable buffer and written out the moment it reaches
// canonical order, then dropped. Resident memory is the single largest
// serialized event (plus whatever the destination writer buffers), not the
// run length — the property that lets a million-job cell be traced in full.
// HighWater reports the serialization buffer's high-water mark so tests can
// assert the bound.
//
// A StreamSink is registered on a Trace with AddConsumer; with
// SetStreaming(true) the trace itself then retains nothing either.
// Write errors are sticky: the first error stops further writes and is
// reported by Err, while consumption keeps counting so the simulation is
// never disturbed by a failing sink.
type StreamSink struct {
	w      io.Writer
	buf    []byte
	high   int
	events int64
	err    error
}

// NewStreamSink returns a StreamSink writing JSONL to w.
func NewStreamSink(w io.Writer) *StreamSink {
	return &StreamSink{w: w, buf: make([]byte, 0, 256)}
}

// Consume serializes and writes one event.
func (s *StreamSink) Consume(e Event) {
	s.events++
	s.buf = e.AppendJSON(s.buf[:0])
	s.buf = append(s.buf, '\n')
	if len(s.buf) > s.high {
		s.high = len(s.buf)
	}
	if s.err == nil {
		_, s.err = s.w.Write(s.buf)
	}
}

// Events returns how many events the sink has consumed.
func (s *StreamSink) Events() int64 { return s.events }

// HighWater returns the serialization buffer's high-water mark in bytes —
// the sink's resident-memory bound.
func (s *StreamSink) HighWater() int { return s.high }

// Err returns the first write error, if any.
func (s *StreamSink) Err() error { return s.err }
