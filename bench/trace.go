package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"phishare/internal/obs"
)

// heapProfileRate is the traced pass's allocation sampling interval.
const heapProfileRate = 16 << 10

// traced measures the cell's per-layer metrics: an untraced reference
// phase, pass A under the CPU and heap profilers (attributed to layers
// from `go tool pprof -traces`), pass B with the obs layer attached, and
// the input generator timed from outside. dir receives the profiles.
func traced(c *cell, seed int64, seconds float64, dir string, k *checker) (map[string]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpuPath := filepath.Join(dir, c.name+".cpu.pprof")
	heap0Path := filepath.Join(dir, c.name+".heap0.pprof")
	heapPath := filepath.Join(dir, c.name+".heap.pprof")

	in, _, _ := c.setup(seed, k)
	untraced := c.measure(in, seed, seconds/2, c.traceRuns, k)

	// Pass A. The heap profile is cumulative since process start, so the
	// profile taken before the pass is subtracted from the one after it.
	runtime.MemProfileRate = heapProfileRate
	if err := writeHeapProfile(heap0Path); err != nil {
		return nil, err
	}
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	passA := c.measure(in, seed, seconds/2, c.traceRuns, k)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	if err := writeHeapProfile(heapPath); err != nil {
		return nil, err
	}
	cpuSamples, err := pprofTraces("-unit=ns", cpuPath)
	if err != nil {
		return nil, err
	}
	heapSamples, err := pprofTraces("-sample_index=alloc_space", "-unit=B", "-base", heap0Path, heapPath)
	if err != nil {
		return nil, err
	}
	cpu, alloc := attribute(cpuSamples), attribute(heapSamples)

	m := map[string]float64{
		"trace.overhead_frac":     quantile(passA.walls, 0.5)/quantile(untraced.walls, 0.5) - 1,
		"profile.coverage":        cpu.total / 1e9 / passA.cpu,
		"workload.gen_ns_per_job": genNsPerJob(c, seed),
	}
	for _, l := range layers {
		m[l+".cpu_frac"] = cpu.self[l]
		m[l+".cum_frac"] = cpu.cum[l]
		m[l+".alloc_frac"] = alloc.self[l]
	}
	counts, err := passB(c, in, seed, k)
	if err != nil {
		return nil, err
	}
	for name, v := range counts {
		m[name] = v
	}
	return m, nil
}

func writeHeapProfile(path string) error {
	runtime.GC() // the heap profile is as of the last completed collection
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// pprofTraces runs `go tool pprof -traces` and parses its report.
func pprofTraces(args ...string) ([]sample, error) {
	args = append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, args...)
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return parseTraces(&stdout)
}

// genNsPerJob times the cell's input generator from outside: draining a
// fresh diurnal source, or generating the Table I job sets. Median of three.
func genNsPerJob(c *cell, seed int64) float64 {
	ns := make([]float64, 3)
	for i := range ns {
		t0 := wallNow()
		jobs := c.jobs
		if c.diurnal {
			src := c.source(seed)
			for _, ok := src.Next(); ok; _, ok = src.Next() {
			}
		} else {
			c.generate(seed)
			jobs *= c.sets
		}
		ns[i] = 1e9 * secondsSince(t0) / float64(jobs)
	}
	return quantile(ns, 0.5)
}

// passB makes one run with the obs layer attached and reads the layer
// counters from its Prometheus export; the pool's resubmits and peak
// queue depth, which obs does not export, come from the run's result.
func passB(c *cell, in inputs, seed int64, k *checker) (map[string]float64, error) {
	cfg := c.config(in, seed, 0)
	cfg.Obs = obs.New()
	res, err := runOnce(cfg)
	k.check(0, res, err)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cfg.Obs.WriteMetrics(&buf); err != nil {
		return nil, fmt.Errorf("write metrics: %w", err)
	}
	p, err := parsePrometheus(&buf)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"condor.negotiations":          p["condor_negotiations_total"],
		"condor.cycle_skips":           p["condor_negotiation_skips_total"],
		"condor.matches":               p["condor_matches_total"],
		"condor.resubmits":             float64(res.PoolStats.Resubmits),
		"condor.peak_pending":          float64(res.Stream.PeakPending),
		"condor.match_cache_hit_ratio": share(p["condor_match_cache_hits_total"], p["condor_match_cache_hits_total"]+p["condor_match_cache_misses_total"]),
		"condor.evals_saved":           p["condor_autocluster_evals_saved_total"],
		"core.plan_rounds":             p["core_plan_rounds_total"],
		"core.jobs_deferred":           p["core_jobs_deferred_total"],
		"core.memo_hit_ratio":          share(p["core_round_memo_hits_total"], p["core_round_memo_hits_total"]+p["core_round_memo_misses_total"]),
		"core.fastpath_ratio":          share(p["core_knapsack_fastpath_solves_total"], p["core_knapsack_fastpath_solves_total"]+p["core_knapsack_dp_solves_total"]),
		"knapsack.dp_solves":           p["core_knapsack_dp_solves_total"],
		"phi.offloads_started":         p["phi_offloads_started_total"],
		"phi.oom_kills":                p["phi_oom_kills_total"],
		"phi.offloads_aborted":         p["phi_offloads_aborted_total"],
		"cosmic.offloads_waited_ratio": share(p["cosmic_offloads_waited_total"], p["cosmic_offloads_dispatched_total"]),
		"cosmic.container_kills":       p["cosmic_container_kills_total"],
		"cosmic.admissions_blocked":    p["cosmic_admissions_blocked_total"],
	}, nil
}

// share is part/whole, 0 when nothing was counted.
func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// parsePrometheus sums a Prometheus text export by metric family, over
// all label sets.
func parsePrometheus(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prometheus line %q has no value", line)
		}
		series := line[:i]
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus line %q: %w", line, err)
		}
		family, _, _ := strings.Cut(series, "{")
		out[family] += v
	}
	return out, sc.Err()
}
