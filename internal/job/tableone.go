package job

import (
	"fmt"

	"phishare/internal/rng"
	"phishare/internal/units"
)

// Template generates instances of one of the paper's Table I workloads.
//
// Table I fixes each application's thread request and memory-request range;
// the phase-profile parameters (offload count, offload/host durations) are
// our calibration of the missing execution profiles, chosen so that the
// §III motivation numbers reproduce: exclusive-mode core utilization around
// 50% for the real mix, and sequential job times that put the 1000-job
// 8-node MC makespan at the paper's ~3500 s scale (Table II).
type Template struct {
	Name        string
	Description string

	Threads units.Threads // declared (and widest-offload) thread request
	MemLo   units.MB      // memory request range across instances (Table I)
	MemHi   units.MB

	// Phase profile calibration. An instance has:
	//   setup host phase, then NumOffloads × (offload, host gap),
	// with the trailing host gap serving as teardown.
	NumOffloadsLo, NumOffloadsHi int
	OffloadLo, OffloadHi         units.Tick // single offload duration range
	HostGapLo, HostGapHi         units.Tick // host time between offloads
	SetupLo, SetupHi             units.Tick // initial host phase

	// NarrowOffloadFrac is the probability that an individual offload uses
	// half the declared threads — §III's second underutilization source
	// ("a job may not use all 60 cores for all its offloads").
	NarrowOffloadFrac float64
}

// TableOne returns the seven Xeon Phi workloads of the paper's Table I.
//
//	Name | Threads | Memory       | Description
//	KM   |  60     | 300–1250 MB  | K-means (Lloyd), 4M pts/3 dims/32 means
//	MC   | 180     | 400–650 MB   | Monte Carlo, N=32M paths, T=1000
//	MD   | 180     | 300–750 MB   | Molecular dynamics, 25000 particles
//	SG   |  60     | 500–3400 MB  | SGEMM chain, 8K×8K, 10 iterations
//	BT   | 240     | 300–1250 MB  | NPB BT (CFD, block tri-diagonal)
//	SP   | 180     | 300–1850 MB  | NPB SP (CFD, scalar penta-diagonal)
//	LU   | 180     | 400–1250 MB  | NPB LU (CFD, Gauss-Seidel)
func TableOne() []Template {
	s := units.Second
	return []Template{
		{
			Name: "KM", Description: "K-means clustering (Lloyd), 4M points/3 dims/32 means",
			Threads: 60, MemLo: 300, MemHi: 1250,
			NumOffloadsLo: 8, NumOffloadsHi: 12,
			OffloadLo: 1200 * units.Millisecond, OffloadHi: 1700 * units.Millisecond,
			HostGapLo: 600 * units.Millisecond, HostGapHi: 900 * units.Millisecond,
			SetupLo: 1 * s, SetupHi: 2 * s,
			NarrowOffloadFrac: 0.2,
		},
		{
			Name: "MC", Description: "Monte Carlo simulation, N=32M paths, T=1000 steps",
			Threads: 180, MemLo: 400, MemHi: 650,
			NumOffloadsLo: 4, NumOffloadsHi: 6,
			OffloadLo: 3500 * units.Millisecond, OffloadHi: 5 * s,
			HostGapLo: 1 * s, HostGapHi: 2 * s,
			SetupLo: 1 * s, SetupHi: 2 * s,
			NarrowOffloadFrac: 0.1,
		},
		{
			Name: "MD", Description: "Molecular dynamics, 25000 particles, 5 time steps",
			Threads: 180, MemLo: 300, MemHi: 750,
			NumOffloadsLo: 5, NumOffloadsHi: 5, // one offload per time step
			OffloadLo: 2500 * units.Millisecond, OffloadHi: 3500 * units.Millisecond,
			HostGapLo: 1200 * units.Millisecond, HostGapHi: 2 * s,
			SetupLo: 1 * s, SetupHi: 2 * s,
			NarrowOffloadFrac: 0.15,
		},
		{
			Name: "SG", Description: "SGEMM chain, 8K x 8K matrices, 10 iterations",
			Threads: 60, MemLo: 500, MemHi: 3400,
			NumOffloadsLo: 10, NumOffloadsHi: 10,
			OffloadLo: 2 * s, OffloadHi: 3 * s,
			HostGapLo: 400 * units.Millisecond, HostGapHi: 800 * units.Millisecond,
			SetupLo: 1500 * units.Millisecond, SetupHi: 3 * s, // large transfers
			NarrowOffloadFrac: 0.1,
		},
		{
			Name: "BT", Description: "NPB BT: CFD block tri-diagonal solver, 162^3 grid",
			Threads: 240, MemLo: 300, MemHi: 1250,
			NumOffloadsLo: 8, NumOffloadsHi: 10,
			OffloadLo: 2500 * units.Millisecond, OffloadHi: 3500 * units.Millisecond,
			HostGapLo: 500 * units.Millisecond, HostGapHi: 1 * s,
			SetupLo: 1 * s, SetupHi: 2 * s,
			NarrowOffloadFrac: 0.1,
		},
		{
			Name: "SP", Description: "NPB SP: CFD scalar penta-diagonal solver, 162^3 grid",
			Threads: 180, MemLo: 300, MemHi: 1850,
			NumOffloadsLo: 7, NumOffloadsHi: 9,
			OffloadLo: 2 * s, OffloadHi: 3 * s,
			HostGapLo: 800 * units.Millisecond, HostGapHi: 1500 * units.Millisecond,
			SetupLo: 1 * s, SetupHi: 2 * s,
			NarrowOffloadFrac: 0.15,
		},
		{
			Name: "LU", Description: "NPB LU: CFD lower-upper Gauss-Seidel solver, 162^3 grid",
			Threads: 180, MemLo: 400, MemHi: 1250,
			NumOffloadsLo: 6, NumOffloadsHi: 8,
			OffloadLo: 2 * s, OffloadHi: 3 * s,
			HostGapLo: 1 * s, HostGapHi: 1800 * units.Millisecond,
			SetupLo: 1 * s, SetupHi: 2 * s,
			NarrowOffloadFrac: 0.15,
		},
	}
}

// Instantiate draws one job instance from the template.
//
// misestimateProb is the probability that the user underestimated the job's
// memory (ActualPeakMem > Mem), the failure COSMIC's memory containers
// guard against; pass 0 for the paper's main experiments, where requests
// are honest.
func (t Template) Instantiate(id int, r *rng.Source, misestimateProb float64) *Job {
	j := &Job{
		ID:       id,
		Name:     fmt.Sprintf("%s#%d", t.Name, id),
		Workload: t.Name,
		Mem:      units.MB(r.UniformInt(int(t.MemLo), int(t.MemHi))),
		Threads:  t.Threads,
	}
	j.ActualPeakMem = units.MB(float64(j.Mem) * r.Uniform(0.85, 1.0))
	if misestimateProb > 0 && r.Float64() < misestimateProb {
		j.ActualPeakMem = units.MB(float64(j.Mem) * r.Uniform(1.05, 1.5))
	}

	k := r.UniformInt(t.NumOffloadsLo, t.NumOffloadsHi)
	j.Phases = append(j.Phases, Phase{
		Kind:     HostPhase,
		Duration: units.Tick(r.UniformInt(int(t.SetupLo), int(t.SetupHi))),
	})
	for i := 0; i < k; i++ {
		th := t.Threads
		if r.Float64() < t.NarrowOffloadFrac {
			th = (t.Threads/2/4 + 1) * 4 // roughly half, core-aligned
		}
		j.Phases = append(j.Phases, Phase{
			Kind:     OffloadPhase,
			Duration: units.Tick(r.UniformInt(int(t.OffloadLo), int(t.OffloadHi))),
			Threads:  th,
		})
		j.Phases = append(j.Phases, Phase{
			Kind:     HostPhase,
			Duration: units.Tick(r.UniformInt(int(t.HostGapLo), int(t.HostGapHi))),
		})
	}
	return j
}

// GenerateTableOneSet draws n job instances uniformly across the seven
// Table I workloads, reproducing the paper's "1000 independent job
// instances" sets (§III, §V-A). Jobs are returned in submission order.
func GenerateTableOneSet(n int, r *rng.Source) []*Job {
	templates := TableOne()
	jobs := make([]*Job, n)
	for i := range jobs {
		t := templates[r.Intn(len(templates))]
		jobs[i] = t.Instantiate(i, r, 0)
	}
	return jobs
}
