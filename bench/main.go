// Command bench is phishare's end-to-end benchmark. It drives the
// simulator through experiments.Run on four workloads, one simulation at a
// time (closed loop: the next run starts when the previous one returns),
// checks every run's simulated outcome, and prints each metric by name
// with its unit. The last line of its output is a JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Untraced (--trace 0) it reports the end-to-end metrics; traced (--trace 1)
// it profiles the workload in the same way and reports per-layer metrics.
// See README.md for the metrics, the workloads and how they relate.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload paper-mcck --seed 11 --seconds 10 --trace 0
//	go -C bench run . --workload all
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metricDef is a metric's name and unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are the metrics of an untraced run.
var endToEndMetrics = []metricDef{
	{"jobs_per_s", "jobs/s"},
	{"run_p99_ms", "ms"},
	{"cpu_ms_per_kjob", "ms/kjob"},
	{"allocs_per_job", "allocs/job"},
	{"alloc_kb_per_job", "KiB/job"},
	{"peak_heap_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics are the metrics of a traced run.
func perLayerMetrics() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".cpu_frac", "fraction"}, metricDef{l + ".cum_frac", "fraction"},
			metricDef{l + ".alloc_frac", "fraction"})
	}
	out = append(out,
		metricDef{"trace.overhead_frac", "fraction"},
		metricDef{"profile.coverage", "fraction"},
		metricDef{"workload.gen_ns_per_job", "ns/job"},
	)
	for _, n := range []string{
		"condor.negotiations", "condor.cycle_skips", "condor.matches", "condor.resubmits",
		"condor.peak_pending", "condor.evals_saved", "core.plan_rounds", "core.jobs_deferred",
		"knapsack.dp_solves", "phi.offloads_started", "phi.oom_kills", "phi.offloads_aborted",
		"cosmic.container_kills", "cosmic.admissions_blocked",
	} {
		out = append(out, metricDef{n, "count"})
	}
	for _, n := range []string{
		"condor.match_cache_hit_ratio", "core.memo_hit_ratio", "core.fastpath_ratio",
		"cosmic.offloads_waited_ratio",
	} {
		out = append(out, metricDef{n, "ratio"})
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command; it returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", pinSeed, "seed of the workload generators and the simulation")
	seconds := fs.Float64("seconds", 10, "wall seconds of measured runs per workload")
	trace := fs.Int("trace", 0, "1 runs the profiled pass and reports per-layer metrics")
	profiles := fs.String("profiles", filepath.Join(".bench_build", "profiles"), "directory for the traced pass's profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: usage: bench [--workload W] [--seed S] [--seconds T] [--trace 0|1]")
		return 2
	}
	todo := cells
	if *name != "all" {
		c, err := cellByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		todo = []*cell{c}
	}
	// The simulator keeps its default worker count; never run it wider
	// than the host.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	fmt.Fprintf(stdout, "# env: nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, c := range todo {
		fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d\n", c.name, *seed, *seconds, *trace)
		k := newChecker(c, *seed)
		var values map[string]float64
		want := endToEndMetrics
		if *trace == 1 {
			want = perLayerMetrics()
			var err error
			if values, err = traced(c, *seed, *seconds, *profiles, k); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		} else {
			values = endToEnd(c, *seed, *seconds, k)
		}
		if k.want[0] != nil {
			fmt.Fprintf(stdout, "outcome of input set 1 of %d: %s\n", c.sets, k.want[0])
		}
		if k.firstErr != nil {
			fmt.Fprintln(stdout, "FAILED:", k.firstErr)
		}
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", "failed_frac", float64(k.failed)/float64(k.attempted), "fraction")
		if p50, ok := values["run_p50_ms"]; ok {
			// Printed for reading, kept out of the result line: the median
			// of a run-time distribution that turns bimodal under host
			// contention is the least reproducible timing (see README.md).
			fmt.Fprintf(stdout, "%-34s %16.6g %s\n", "run_p50_ms", p50, "ms")
		}
		prefix := ""
		if len(todo) > 1 {
			prefix = c.name + "."
		}
		for _, m := range want {
			v := values[m.name]
			fmt.Fprintf(stdout, "%-34s %16.6g %s\n", m.name, v, m.unit)
			final.Metrics[prefix+m.name] = metricValue{v, m.unit}
		}
		final.Correct = final.Correct && k.failed == 0
		final.Attempted += k.attempted
		final.Failed += k.failed
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// cpuModel is the host CPU's model name, for the environment header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
