package runner

import (
	"fmt"
	"testing"

	"phishare/internal/job"
	"phishare/internal/units"
)

// pairsJob is a job of n (host, offload) phase pairs whose offloads move
// xfer MB each way over the node link.
func pairsJob(n int, xfer units.MB) *job.Job {
	j := &job.Job{ID: 1, Name: "pairs", Workload: "test", Mem: 500, Threads: 120, ActualPeakMem: 450}
	for i := 0; i < n; i++ {
		j.Phases = append(j.Phases,
			job.Phase{Kind: job.HostPhase, Duration: 300},
			job.Phase{Kind: job.OffloadPhase, Duration: 700, Threads: 120, TransferIn: xfer, TransferOut: xfer})
	}
	return j
}

// TestPhaseLifecycleAllocatesNothing pins the offload lifecycle through
// runner, cosmic, phi and the link to zero allocations per phase: a job
// with 8 phase pairs allocates exactly what one with 2 does, under COSMIC
// and raw MPSS, with and without DMA transfers. What remains is the
// per-job cost (the run's state, its admission and kill hooks, the COI
// process).
func TestPhaseLifecycleAllocatesNothing(t *testing.T) {
	for _, cosmic := range []bool{true, false} {
		for _, xfer := range []units.MB{0, 600} {
			t.Run(fmt.Sprintf("cosmic=%v/transfer=%v", cosmic, xfer), func(t *testing.T) {
				eng, u := mkCluster(t, cosmic)
				perJob := func(pairs int) float64 {
					j := pairsJob(pairs, xfer)
					completed := 0
					done := DoneFunc(func(r Result) {
						if r.Outcome == Completed {
							completed++
						}
					})
					runs := 50
					allocs := testing.AllocsPerRun(runs, func() {
						Run(u, j, done)
						eng.Run()
					})
					if completed != runs+1 { // AllocsPerRun adds one warm-up run
						t.Fatalf("%d of %d runs completed", completed, runs+1)
					}
					return allocs
				}
				short, long := perJob(2), perJob(8)
				t.Logf("%v allocs per job", short)
				if long != short {
					t.Errorf("8 phase pairs allocate %v per job, 2 allocate %v: %v per extra phase pair",
						long, short, (long-short)/6)
				}
			})
		}
	}
}
