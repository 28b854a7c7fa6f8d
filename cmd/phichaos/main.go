// Command phichaos is the fault-injection swarm: it sweeps seeds × policies
// × fault profiles through the full simulation stack with the invariant
// checker armed, and reports every run whose conservation laws broke.
//
// Usage:
//
//	phichaos [-seeds N] [-seed0 N] [-policies MC,MCC,MCCK]
//	         [-profiles light,heavy] [-jobs N] [-nodes N] [-retries N]
//	         [-diff] [-stream] [-v]
//
// With -diff every cell additionally replays on the reference paths —
// autoclusters, match cache and the sparse knapsack solver all
// force-disabled — and any divergence between the two runs'
// job-record streams is a failure: fault injection is the adversarial
// workout for cache invalidation, so the bit-for-bit equivalence claim is
// checked exactly where it is most likely to break.
//
// With -stream the swarm instead runs faulted diurnal cells of -jobs
// arrivals twice each — retained under the invariant checker, then in
// emit-and-drop streaming mode — and any divergence between the two runs'
// online aggregates (summary, per-tenant fairness, stretch, footprint
// marks) is a failure: the adversarial version of the streaming-equivalence
// guarantee.
//
// Each failure prints a `FAIL seed=N profile=P policy=Q` triple followed by
// the violations and a replay command: this run's flags narrowed to that
// one cell. Exit status 1 when any run fails, 0 when the whole swarm is
// clean.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"phishare/internal/experiments"
	"phishare/internal/faults"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 50, "number of consecutive seeds to sweep")
		seed0    = flag.Int64("seed0", 1, "first seed")
		policies = flag.String("policies", "MC,MCC,MCCK", "comma-separated policies")
		profiles = flag.String("profiles", "light,heavy", "comma-separated fault profiles (none,light,heavy)")
		jobs     = flag.Int("jobs", 0, "jobs per run (0: 18 Table I jobs, or 60 diurnal arrivals with -stream)")
		nodes    = flag.Int("nodes", 3, "cluster nodes per run")
		retries  = flag.Int("retries", 4, "crash retry budget per job")
		diff     = flag.Bool("diff", false, "replay every cell on the reference paths (DisableMatchCache, dense knapsack), diffing outcomes bit-for-bit")
		stream   = flag.Bool("stream", false, "run faulted diurnal cells in streaming record mode and diff their aggregates against checked retained runs")
		verbose  = flag.Bool("v", false, "print progress lines")
	)
	flag.Parse()
	if *diff && *stream {
		fmt.Fprintln(os.Stderr, "phichaos: -diff and -stream select different sweeps; give one")
		os.Exit(2)
	}

	var profs []faults.Profile
	for _, name := range strings.Split(*profiles, ",") {
		p, ok := faults.ProfileByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "phichaos: unknown profile %q (want none, light or heavy)\n", name)
			os.Exit(2)
		}
		profs = append(profs, p)
	}
	pols := strings.Split(*policies, ",")
	var logf func(string, ...any)
	if *verbose {
		logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	var failures []experiments.ChaosFailure
	mode := "runs"
	if *stream {
		mode = "streaming cells"
		failures = experiments.StreamChaosSwarm(experiments.StreamChaosConfig{
			Seeds: *seeds, Seed0: *seed0, Policies: pols, Profiles: profs,
			Jobs: *jobs, Nodes: *nodes, Retries: *retries, Logf: logf,
		})
	} else {
		if *diff {
			mode = "reference-diffed runs"
		}
		failures = experiments.ChaosSwarm(experiments.ChaosConfig{
			Seeds: *seeds, Seed0: *seed0, Policies: pols, Profiles: profs,
			Jobs: *jobs, Nodes: *nodes, Retries: *retries, DiffReference: *diff, Logf: logf,
		})
	}

	runs := *seeds * len(pols) * len(profs)
	if len(failures) == 0 {
		fmt.Printf("phichaos: %d %s clean (%d seeds x %d policies x %d profiles on %d nodes)\n",
			runs, mode, *seeds, len(pols), len(profs), *nodes)
		return
	}
	// A replay keeps every flag this run was given except the sweep's own
	// grid, which it narrows to the failed cell.
	keep := ""
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seeds", "seed0", "profiles", "policies", "v":
		default:
			keep += fmt.Sprintf(" -%s=%s", f.Name, f.Value)
		}
	})
	for _, f := range failures {
		fmt.Println(f)
		fmt.Printf("  replay: phichaos%s -seeds 1 -seed0 %d -profiles %s -policies %s\n",
			keep, f.Seed, f.Profile, f.Policy)
	}
	fmt.Printf("phichaos: %d/%d %s FAILED\n", len(failures), runs, mode)
	os.Exit(1)
}
