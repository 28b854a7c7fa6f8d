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
//     at a single event's size, and the per-lane shard buffers never held
//     more than one window's emissions. The residency ratio is the proof, in
//     the style of TestMillionJobBoundedMemory: quadrupling the job count on
//     the same nodes roughly quadruples the event stream but must leave the
//     shard high-water mark flat.
//  2. Bit-identity: the streamed JSONL (compared by digest — the point of
//     streaming is that neither run retains the events), the Prometheus
//     metrics snapshot, and the sampled time series are byte-identical
//     between serial and 4-worker parallel execution, with parallel mode
//     genuinely active.
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
		shardHigh int
		res       Result
	}
	run := func(n int, parallel bool) outcome {
		o := obs.New()
		h := sha256.New()
		sink := o.StreamEvents(h)
		res := Run(RunConfig{
			Policy:   PolicyMCC,
			Nodes:    nodes,
			Jobs:     job.GenerateTableOneSet(n, rng.New(17).Fork("tableI")),
			Seed:     17,
			Obs:      o,
			Parallel: &parallel,
			Workers:  4,
		})
		if sink.Err() != nil {
			t.Fatalf("stream sink write error: %v", sink.Err())
		}
		var out outcome
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
		out.events = sink.Events()
		out.highWater = sink.HighWater()
		out.shardHigh = o.ShardHighWater()
		out.res = res
		return out
	}

	serial := run(big, false)
	parallel := run(big, true)
	smaller := run(small, true)

	for _, o := range []outcome{parallel, smaller} {
		if !o.res.Parallel || o.res.Epochs == 0 {
			t.Fatalf("parallel run inactive: parallel=%v epochs=%d", o.res.Parallel, o.res.Epochs)
		}
	}
	if serial.res.Makespan != parallel.res.Makespan {
		t.Fatalf("makespan differs: serial %v, parallel %v",
			serial.res.Makespan, parallel.res.Makespan)
	}

	// Full trace, bounded memory. Every job emits several lifecycle events,
	// while the sink never holds more than one serialized event (well under
	// 4 KiB) whatever the run length.
	if serial.events < 5*big {
		t.Errorf("streamed only %d events; expected the full lifecycle stream", serial.events)
	}
	if serial.events != parallel.events {
		t.Errorf("event counts differ: serial %d, parallel %d", serial.events, parallel.events)
	}
	for _, o := range []struct {
		name string
		out  outcome
	}{{"serial", serial}, {"parallel", parallel}, {"parallel small", smaller}} {
		if o.out.highWater > 4096 {
			t.Errorf("%s: sink buffer high-water mark %d bytes; streaming must stay at one-event size",
				o.name, o.out.highWater)
		}
	}
	if parallel.shardHigh == 0 || smaller.shardHigh == 0 {
		t.Fatal("parallel run never buffered in a lane shard; epoch emissions took the wrong path")
	}
	// Residency ratio: 4× the jobs streams ≥3× the events through the same
	// lanes, but the shards drain every window, so their high-water mark
	// tracks per-window activity (bounded by the host slots), not run length.
	t.Logf("events %d → %d (×%.2f), shard high-water %d → %d (×%.2f)",
		smaller.events, parallel.events, float64(parallel.events)/float64(smaller.events),
		smaller.shardHigh, parallel.shardHigh, float64(parallel.shardHigh)/float64(smaller.shardHigh))
	if parallel.events < 3*smaller.events {
		t.Fatalf("event stream grew only %d → %d with 4× the jobs; the cell no longer scales",
			smaller.events, parallel.events)
	}
	if parallel.shardHigh > 2*smaller.shardHigh {
		t.Errorf("lane shard high-water mark grew with run length: %d events at %d jobs vs %d at %d jobs (> 2×)",
			parallel.shardHigh, big, smaller.shardHigh, small)
	}

	// Bit-identity.
	if serial.traceSum != parallel.traceSum {
		t.Error("streamed trace digests differ between serial and parallel runs")
	}
	if serial.metrics != parallel.metrics {
		t.Error("metrics snapshots differ between serial and parallel runs")
	}
	if serial.series != parallel.series {
		t.Error("sampled series differ between serial and parallel runs")
	}
}
