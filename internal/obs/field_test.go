package obs

import (
	"testing"
	"unsafe"

	"phishare/internal/units"
)

// TestFieldIs32Bytes pins the Field layout. The retained trace keeps every
// field of a run in its arena (about 27.5k fields on the paper-mcck-obs
// benchmark cell), so a 40- or 48-byte Field would raise that cell's
// alloc_kb_per_job by 10–20%, far past the benchmark's 2% bound.
func TestFieldIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Field{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Field{}) = %d, want 32", got)
	}
}

// countSink counts consumed events and reads every field, as the span
// builder and the stream writer do.
type countSink struct{ events, fields int }

func (s *countSink) Consume(e Event) {
	s.events++
	s.fields += len(e.Fields)
}

// TestEmitAllocatesNothing: emitting one field of every kind allocates
// nothing, in streaming mode and in retained mode once the arenas hold a
// block each (the 100 measured emits stay inside those blocks).
func TestEmitAllocatesNothing(t *testing.T) {
	ids := []int{4, 5, 6}
	dev := "slot1@node0"
	for _, streaming := range []bool{false, true} {
		tr := NewTrace()
		sink := &countSink{}
		tr.AddConsumer(sink)
		tr.SetStreaming(streaming)
		emit := func() {
			tr.Emit(units.Tick(1500), LayerCore, "knapsack",
				Str("device", dev), Int("job", 7), Int("wait_ms", units.Tick(90)),
				Float("speed", 0.75), Bool("fastpath", true), IDs("picked_jobs", ids))
		}
		emit() // warms the arenas (retained) or the scratch buffer (streaming)
		if allocs := testing.AllocsPerRun(100, emit); allocs != 0 {
			t.Errorf("streaming=%v: Emit allocates %v per event, want 0", streaming, allocs)
		}
		if sink.events != 102 || sink.fields != 6*102 {
			t.Errorf("streaming=%v: sink saw %d events / %d fields, want 102 / 612", streaming, sink.events, sink.fields)
		}
		if !streaming && tr.Len() != 102 {
			t.Errorf("retained %d events, want 102", tr.Len())
		}
	}
}
