package experiments

import (
	"crypto/sha256"
	"testing"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
)

// TestBigCellStreamingTrace traces a BigCell-shaped cell — a Table I stream
// queued at t=0 under MCC, 100 jobs per node — end to end through a
// streaming emit-and-drop sink, and asserts:
//
//  1. Bounded memory: the sink's serialization buffer high-water mark stays
//     at a single event's size while quadrupling the job count on the same
//     nodes roughly quadruples the event stream.
//  2. Bit-identity: the streamed JSONL (compared by digest — the point of
//     streaming is that the run retains no events), the Prometheus metrics
//     snapshot, and the sampled time series are byte-identical to a
//     retained run's exports of the same cell.
//
// The full-scale cell (1,000 nodes, 100,000 jobs) is BenchmarkBigCell.
// Skipped under -race (see race_on_test.go) and -short; plain `go test`
// runs it.
func TestBigCellStreamingTrace(t *testing.T) {
	if raceEnabled {
		t.Skip("streaming trace cell is too slow under the race detector; small-cell tests cover these paths")
	}
	if testing.Short() {
		t.Skip("streaming trace cell skipped in -short mode")
	}
	const (
		nodes = 100
		small = 2_500
		big   = 10_000
	)

	type outcome struct {
		traceSum  [32]byte
		metrics   [32]byte
		series    [32]byte
		events    int64
		highWater int
		res       Result
	}
	run := func(n int, stream bool) outcome {
		o := obs.New()
		h := sha256.New()
		var sink *obs.StreamSink
		if stream {
			sink = o.StreamEvents(h)
		}
		res := Run(RunConfig{
			Policy: PolicyMCC,
			Nodes:  nodes,
			Jobs:   job.GenerateTableOneSet(n, rng.New(17).Fork("tableI")),
			Seed:   17,
			Obs:    o,
		})
		var out outcome
		if stream {
			if sink.Err() != nil {
				t.Fatalf("stream sink write error: %v", sink.Err())
			}
			out.events = sink.Events()
			out.highWater = sink.HighWater()
		} else if err := o.WriteEvents(h); err != nil {
			t.Fatal(err)
		}
		h.Sum(out.traceSum[:0])
		mh := sha256.New()
		if err := o.WriteMetrics(mh); err != nil {
			t.Fatal(err)
		}
		mh.Sum(out.metrics[:0])
		sh := sha256.New()
		if err := o.WriteSeriesCSV(sh); err != nil {
			t.Fatal(err)
		}
		sh.Sum(out.series[:0])
		out.res = res
		return out
	}

	streamed := run(big, true)
	smaller := run(small, true)
	retained := run(small, false)

	// Full trace, bounded memory. Every job emits several lifecycle events,
	// while the sink never holds more than one serialized event (well under
	// 4 KiB) whatever the run length.
	if streamed.events < 5*big {
		t.Errorf("streamed only %d events; expected the full lifecycle stream", streamed.events)
	}
	t.Logf("events %d → %d (×%.2f)", smaller.events, streamed.events,
		float64(streamed.events)/float64(smaller.events))
	if streamed.events < 3*smaller.events {
		t.Fatalf("event stream grew only %d → %d with 4× the jobs; the cell no longer scales",
			smaller.events, streamed.events)
	}
	for _, o := range []struct {
		name string
		out  outcome
	}{{"big", streamed}, {"small", smaller}} {
		if o.out.highWater > 4096 {
			t.Errorf("%s: sink buffer high-water mark %d bytes; streaming must stay at one-event size",
				o.name, o.out.highWater)
		}
	}

	// Bit-identity.
	if smaller.res.Makespan != retained.res.Makespan {
		t.Fatalf("makespan differs: streamed %v, retained %v",
			smaller.res.Makespan, retained.res.Makespan)
	}
	if smaller.traceSum != retained.traceSum {
		t.Error("streamed trace digest differs from the retained run's JSONL export")
	}
	if smaller.metrics != retained.metrics {
		t.Error("metrics snapshots differ between streamed and retained runs")
	}
	if smaller.series != retained.series {
		t.Error("sampled series differ between streamed and retained runs")
	}
}
