package experiments

import (
	"os"
	"sort"
	"strconv"
	"testing"

	"phishare/internal/condor"
	"phishare/internal/faults"
	"phishare/internal/metrics"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// streamCellSource builds the small diurnal cell the equivalence tests run:
// bursty day-curve arrivals from a skewed three-tenant population. Each
// call returns a fresh single-pass stream; identical (seed) → identical
// stream.
func streamCellSource(seed int64, n int) workload.Source {
	return workload.NewDiurnal(workload.DiurnalConfig{
		N:          n,
		Seed:       seed,
		Day:        10 * units.Minute,
		Horizon:    10 * units.Minute,
		BurstCount: 2,
		Tenants:    3,
	})
}

// TestStreamingAggregatesMatchRetained is the streaming engine's oracle
// gate: across MC/MCC/MCCK × seeds × clean/faulted, an
// emit-and-drop run's online aggregates — Summary, fairness, stretch,
// footprint marks — must be bit-identical to the retained run's post-hoc
// computation, and the record streams themselves must match record for
// record (modulo order: streaming emits at completion, retention at
// submission).
func TestStreamingAggregatesMatchRetained(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	light, _ := faults.ProfileByName("light")
	for _, policy := range Policies() {
		for s := 0; s < seeds; s++ {
			seed := int64(100 + s)
			for _, faulted := range []bool{false, true} {
				cell := func(stream bool) (Result, []metrics.JobRecord) {
					cfg := RunConfig{
						Policy: policy,
						Nodes:  3,
						Source: streamCellSource(seed, 60),
						Seed:   seed,
						Condor: condor.Config{MaxRetries: 4},
						Stream: stream,
					}
					if faulted {
						cfg.Chaos = &faults.Harness{Profile: light, Seed: seed}
					}
					var records []metrics.JobRecord
					cfg.RecordSink = &records
					return Run(cfg), records
				}
				retained, retRecs := cell(false)
				streamed, strRecs := cell(true)

				label := func() string {
					mode := "clean"
					if faulted {
						mode = "faulted"
					}
					return policy + "/" + mode
				}
				if streamed.Summary != retained.Summary {
					t.Errorf("%s seed=%d: streaming summary %+v != retained %+v",
						label(), seed, streamed.Summary, retained.Summary)
				}
				if streamed.Stream != retained.Stream {
					t.Errorf("%s seed=%d: streaming aggregates %+v != retained %+v",
						label(), seed, streamed.Stream, retained.Stream)
				}
				if streamed.Makespan != retained.Makespan ||
					streamed.Utilization != retained.Utilization ||
					streamed.MaxConcurrency != retained.MaxConcurrency {
					t.Errorf("%s seed=%d: headline metrics diverge: %+v vs %+v",
						label(), seed, streamed, retained)
				}
				sortRecords(retRecs)
				sortRecords(strRecs)
				if len(retRecs) != len(strRecs) {
					t.Fatalf("%s seed=%d: %d retained records, %d streamed",
						label(), seed, len(retRecs), len(strRecs))
				}
				for i := range retRecs {
					if retRecs[i] != strRecs[i] {
						t.Errorf("%s seed=%d: record %d: retained %+v != streamed %+v",
							label(), seed, i, retRecs[i], strRecs[i])
						break
					}
				}
			}
		}
	}
}

func sortRecords(recs []metrics.JobRecord) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
}

// TestSourcePumpMatchesPrescheduled pins the generator-timer submission
// path against the classic batch path it replaces: a FromSlice source
// (every arrival at t=0) must produce the same outcomes, record for
// record, as handing the identical slice to RunConfig.Jobs.
func TestSourcePumpMatchesPrescheduled(t *testing.T) {
	opts := Options{Seed: 7, Nodes: 4, RealJobs: 120}.Defaults()
	for _, policy := range Policies() {
		jobs := opts.realJobSet()
		var batchRecs, pumpRecs []metrics.JobRecord
		batch := Run(RunConfig{Policy: policy, Nodes: opts.Nodes, Jobs: jobs,
			Seed: opts.Seed, RecordSink: &batchRecs})
		pump := Run(RunConfig{Policy: policy, Nodes: opts.Nodes,
			Source: workload.FromSlice(opts.realJobSet()),
			Seed:   opts.Seed, RecordSink: &pumpRecs})
		if batch.Summary != pump.Summary || batch.Makespan != pump.Makespan {
			t.Errorf("%s: pump outcome %+v != batch %+v", policy, pump.Summary, batch.Summary)
		}
		sortRecords(batchRecs)
		sortRecords(pumpRecs)
		if len(batchRecs) != len(pumpRecs) {
			t.Fatalf("%s: %d batch records, %d pump", policy, len(batchRecs), len(pumpRecs))
		}
		for i := range batchRecs {
			if batchRecs[i] != pumpRecs[i] {
				t.Errorf("%s: record %d: batch %+v != pump %+v",
					policy, i, batchRecs[i], pumpRecs[i])
				break
			}
		}
	}
}

// TestStreamChaosSwarm is the streaming leg of the `make chaos` gate: every
// faulted diurnal cell replays in streaming mode and its aggregates must
// match the checked retained run bit for bit. Sweep width honors
// STREAM_CHAOS_SEEDS and shrinks under -short.
func TestStreamChaosSwarm(t *testing.T) {
	seeds := 10
	if env := os.Getenv("STREAM_CHAOS_SEEDS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n <= 0 {
			t.Fatalf("bad STREAM_CHAOS_SEEDS=%q", env)
		}
		seeds = n
	} else if testing.Short() {
		seeds = 3
	}
	failures := StreamChaosSwarm(StreamChaosConfig{Seeds: seeds, Logf: t.Logf})
	for _, f := range failures {
		t.Errorf("%s\n  replay: go run ./cmd/phichaos -stream -seeds 1 -seed0 %d -profiles %s -policies %s",
			f, f.Seed, f.Profile, f.Policy)
	}
}

// TestMillionJobBoundedMemory is the scaled-down BenchmarkMillionJob
// residency proof: a 10×-larger streaming day must not grow the live-heap
// high-water mark beyond 2× the small run's — the O(active jobs) bound,
// since tenfold total jobs leave the active population (arrival rate ×
// service time) roughly unchanged relative to the fixed cluster baseline.
func TestMillionJobBoundedMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("heap probing under the race detector measures the detector, not the engine")
	}
	small, big := 20_000, 200_000
	if testing.Short() {
		small, big = 2_000, 20_000
	}
	peak := func(n int) uint64 {
		res := Run(RunConfig{
			Policy: PolicyMCC,
			Nodes:  200,
			Source: workload.NewDiurnal(workload.DiurnalConfig{
				N:          n,
				Seed:       23,
				BurstCount: 6,
				Tenants:    100,
			}),
			NodeDevices:   workload.HeterogeneousPool(23, 200, nil),
			Seed:          23,
			Stream:        true,
			MemProbeEvery: n / 16,
		})
		if res.Summary.Completed == 0 {
			t.Fatalf("n=%d: no jobs completed: %+v", n, res.Summary)
		}
		if res.Stream.PeakHeapBytes == 0 {
			t.Fatalf("n=%d: memory probe recorded nothing", n)
		}
		return res.Stream.PeakHeapBytes
	}
	smallPeak := peak(small)
	bigPeak := peak(big)
	t.Logf("peak heap: %d jobs → %d B, %d jobs → %d B (ratio %.2f)",
		small, smallPeak, big, bigPeak, float64(bigPeak)/float64(smallPeak))
	if bigPeak > 2*smallPeak {
		t.Errorf("peak heap grew superlinearly with job count: %d B at %d jobs vs %d B at %d jobs (> 2x)",
			bigPeak, big, smallPeak, small)
	}
}
