package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/core"
	"phishare/internal/obs"
	"phishare/internal/sim"
)

// wireObservability attaches one Observer to every layer of a freshly built
// stack and registers the per-device sampler probes. Called by Run before
// submission, so every event of the run is captured.
//
// The wiring is read-only with respect to simulation state: SetObserver
// resolves instrument handles, and the sampler's probes only read snapshots.
// The sampler's tick events share the engine's sequence counter with the
// simulation's own events, but (time, seq) is a total order and seq is
// monotonic in scheduling order, so the relative order of every
// pre-existing event pair — and therefore every simulated outcome — is
// unchanged (TestObservabilityPreservesOutcomes asserts this end to end).
func wireObservability(o *obs.Observer, eng *sim.Engine, pool *condor.Pool, pol condor.Policy, clu *cluster.Cluster) {
	pool.SetObserver(o)
	if s, ok := pol.(*core.Scheduler); ok {
		s.SetObserver(o)
	}
	for _, u := range clu.Units {
		u.Device.SetObserver(o)
		if u.Cosmic != nil {
			u.Cosmic.SetObserver(o)
		}
	}

	smp := o.BindSampler(eng)
	smp.Probe("condor_pending_jobs", func() float64 {
		return float64(len(pool.Pending()))
	})
	smp.Probe("condor_in_flight_jobs", func() float64 {
		return float64(pool.InFlight())
	})
	for _, u := range clu.Units {
		dev := u.Device
		id := dev.ID
		smp.Probe(obs.SeriesName("phi_busy_cores", "device", id), func() float64 {
			return float64(dev.Snapshot().BusyCores)
		})
		smp.Probe(obs.SeriesName("phi_running_threads", "device", id), func() float64 {
			return float64(dev.RunningThreads())
		})
		smp.Probe(obs.SeriesName("phi_committed_mb", "device", id), func() float64 {
			return float64(dev.CommittedMemory())
		})
		smp.Probe(obs.SeriesName("phi_warm_threads", "device", id), func() float64 {
			return float64(dev.Snapshot().WarmThreads)
		})
		smp.Probe(obs.SeriesName("phi_speed_factor", "device", id), func() float64 {
			return dev.Speed()
		})
		if cm := u.Cosmic; cm != nil {
			smp.Probe(obs.SeriesName("cosmic_offload_queue_depth", "device", id), func() float64 {
				return float64(cm.QueueLen())
			})
			smp.Probe(obs.SeriesName("cosmic_admit_queue_depth", "device", id), func() float64 {
				return float64(cm.AdmitQueueLen())
			})
		}
	}
	smp.Start()
}

// DumpObserved runs the Table II configuration once per policy with full
// instrumentation and writes each run's artifacts into dir:
// <policy>.prom (metrics snapshot), <policy>.events.jsonl (trace stream),
// <policy>.series.csv (sampled time series), <policy>.html (dashboard).
// Returns the per-policy Results in Policies() order.
func DumpObserved(o Options, dir string) ([]Result, error) {
	o = o.Defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jobs := o.realJobSet()
	var results []Result
	for _, p := range Policies() {
		ob := obs.New()
		res := Run(RunConfig{Policy: p, Nodes: o.Nodes, Jobs: jobs, Seed: o.Seed, Obs: ob})
		results = append(results, res)
		title := fmt.Sprintf("%s: %d jobs on %d nodes, seed %d", p, len(jobs), o.Nodes, o.Seed)
		for _, art := range []struct {
			suffix string
			write  func(io.Writer) error
		}{
			{".prom", ob.WriteMetrics},
			{".events.jsonl", ob.WriteEvents},
			{".series.csv", ob.WriteSeriesCSV},
			{".html", func(w io.Writer) error { return ob.WriteDashboard(w, title) }},
		} {
			path := filepath.Join(dir, p+art.suffix)
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			if err := art.write(f); err != nil {
				f.Close()
				return nil, fmt.Errorf("write %s: %w", path, err)
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}
