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
// With -stream the swarm instead runs faulted diurnal cells twice each —
// retained under the invariant checker, then in emit-and-drop streaming
// mode — and any divergence between the two runs' online aggregates
// (summary, per-tenant fairness, stretch, footprint marks) is a failure:
// the adversarial version of the streaming-equivalence guarantee.
//
// Each failure prints a `FAIL seed=N profile=P policy=Q` triple followed by
// the violations; replay one cell with the same workload flags plus
// -seeds 1 -seed0 N -profiles P -policies Q. Exit status 1 when any run
// fails, 0 when the whole swarm is clean.
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
		jobs     = flag.Int("jobs", 18, "Table I jobs per run")
		nodes    = flag.Int("nodes", 3, "cluster nodes per run")
		retries  = flag.Int("retries", 4, "crash retry budget per job")
		diff     = flag.Bool("diff", false, "replay every cell on the reference paths (DisableMatchCache, dense knapsack), diffing outcomes bit-for-bit")
		stream   = flag.Bool("stream", false, "run faulted diurnal cells in streaming record mode and diff their aggregates against checked retained runs")
		verbose  = flag.Bool("v", false, "print progress lines")
	)
	flag.Parse()

	var profs []faults.Profile
	for _, name := range strings.Split(*profiles, ",") {
		p, ok := faults.ProfileByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "phichaos: unknown profile %q (want none, light or heavy)\n", name)
			os.Exit(2)
		}
		profs = append(profs, p)
	}

	if *stream {
		scfg := experiments.StreamChaosConfig{
			Seeds:    *seeds,
			Seed0:    *seed0,
			Policies: strings.Split(*policies, ","),
			Profiles: profs,
			Nodes:    *nodes,
			Retries:  *retries,
		}
		if *verbose {
			scfg.Logf = func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}
		}
		failures := experiments.StreamChaosSwarm(scfg)
		runs := *seeds * len(scfg.Policies) * len(profs)
		if len(failures) == 0 {
			fmt.Printf("phichaos: %d streaming cells clean (%d seeds x %d policies x %d profiles, diurnal cells on %d nodes)\n",
				runs, *seeds, len(scfg.Policies), len(profs), *nodes)
			return
		}
		for _, f := range failures {
			fmt.Println(f)
			fmt.Printf("  replay: phichaos -stream -seeds 1 -seed0 %d -profiles %s -policies %s -nodes %d -retries %d\n",
				f.Seed, f.Profile, f.Policy, *nodes, *retries)
		}
		fmt.Printf("phichaos: %d/%d streaming cells FAILED\n", len(failures), runs)
		os.Exit(1)
	}

	cfg := experiments.ChaosConfig{
		Seeds:         *seeds,
		Seed0:         *seed0,
		Policies:      strings.Split(*policies, ","),
		Profiles:      profs,
		Jobs:          *jobs,
		Nodes:         *nodes,
		Retries:       *retries,
		DiffReference: *diff,
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	failures := experiments.ChaosSwarm(cfg)
	runs := *seeds * len(cfg.Policies) * len(profs)
	if len(failures) == 0 {
		mode := ""
		if *diff {
			mode = ", reference-diffed"
		}
		fmt.Printf("phichaos: %d runs clean (%d seeds x %d policies x %d profiles, %d jobs on %d nodes%s)\n",
			runs, *seeds, len(cfg.Policies), len(profs), *jobs, *nodes, mode)
		return
	}
	for _, f := range failures {
		fmt.Println(f)
		fmt.Printf("  replay: phichaos -seeds 1 -seed0 %d -profiles %s -policies %s -jobs %d -nodes %d -retries %d\n",
			f.Seed, f.Profile, f.Policy, *jobs, *nodes, *retries)
	}
	fmt.Printf("phichaos: %d/%d runs FAILED\n", len(failures), runs)
	os.Exit(1)
}
