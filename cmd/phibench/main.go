// Command phibench regenerates every table and figure of the paper's
// evaluation, plus the extensions and ablations listed in DESIGN.md, and
// prints them as text tables (optionally teeing to a file for
// EXPERIMENTS.md, and/or dumping machine-readable JSON).
//
// Usage:
//
//	phibench [-exp all|motivation|table2|fig7|fig8|fig9|table3|fig10|fig23|dynamic|estimation|ablations]
//	         [-seed N] [-nodes N] [-real N] [-syn N] [-o report.txt] [-json results.json]
//
// The defaults are the paper's parameters: 8 nodes, 1000 Table I instances,
// 400 synthetic jobs per distribution, seed 42.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"phishare/internal/experiments"
)

// spec bundles an experiment's runner with its text renderer, so one run
// can feed both the report and the JSON dump.
type spec struct {
	run  func(experiments.Options) any
	text func(io.Writer, any)
}

func specs() (map[string]spec, []string) {
	m := map[string]spec{
		"motivation": {
			run:  func(o experiments.Options) any { return experiments.Motivation(o) },
			text: func(w io.Writer, r any) { experiments.WriteMotivation(w, r.(experiments.MotivationResult)) },
		},
		"table2": {
			run:  func(o experiments.Options) any { return experiments.Table2(o) },
			text: func(w io.Writer, r any) { experiments.WriteTable2(w, r.(experiments.Table2Result)) },
		},
		"table2multi": {
			run:  func(o experiments.Options) any { return experiments.Table2Multi(o, nil) },
			text: func(w io.Writer, r any) { experiments.WriteTable2Multi(w, r.([]experiments.SeedStats)) },
		},
		"fig7": {
			run:  func(o experiments.Options) any { return experiments.Fig7(o) },
			text: func(w io.Writer, r any) { experiments.WriteFig7(w, r.(experiments.Fig7Result)) },
		},
		"fig8": {
			run:  func(o experiments.Options) any { return experiments.Fig8(o) },
			text: func(w io.Writer, r any) { experiments.WriteFig8(w, r.(experiments.Fig8Result)) },
		},
		"fig9": {
			run:  func(o experiments.Options) any { return experiments.Fig9(o) },
			text: func(w io.Writer, r any) { experiments.WriteFig9(w, r.(experiments.Fig9Result)) },
		},
		"table3": {
			run:  func(o experiments.Options) any { return experiments.Table3(o) },
			text: func(w io.Writer, r any) { experiments.WriteTable3(w, r.(experiments.Table3Result)) },
		},
		"fig10": {
			run:  func(o experiments.Options) any { return experiments.Fig10(o) },
			text: func(w io.Writer, r any) { experiments.WriteFig10(w, r.(experiments.Fig10Result)) },
		},
		"fig23": {
			run:  func(o experiments.Options) any { return experiments.Fig23(o) },
			text: func(w io.Writer, r any) { experiments.WriteFig23(w, r.(experiments.Fig23Result)) },
		},
		"dynamic": {
			run:  func(o experiments.Options) any { return experiments.Dynamic(o, experiments.DynamicConfig{}) },
			text: func(w io.Writer, r any) { experiments.WriteDynamic(w, r.([]experiments.DynamicRow)) },
		},
		"estimation": {
			run:  func(o experiments.Options) any { return experiments.Estimation(o) },
			text: func(w io.Writer, r any) { experiments.WriteEstimation(w, r.([]experiments.EstimationRow)) },
		},
		"ablations": {
			run: func(o experiments.Options) any {
				return map[string]any{
					"a1_value_function":      experiments.AblationValueFunction(o),
					"a2_oversubscription":    experiments.AblationOversubscription(o),
					"a3_negotiation_cycle":   experiments.AblationNegotiationCycle(o),
					"a4_dispatch_discipline": experiments.AblationDispatchDiscipline(o),
					"a5_transfer_contention": experiments.AblationTransferContention(o),
					"a6_claim_reuse":         experiments.AblationClaimReuse(o),
				}
			},
			text: func(w io.Writer, r any) {
				m := r.(map[string]any)
				experiments.WriteAblation(w, "A1: knapsack value function (Table I mix)", m["a1_value_function"].([]experiments.AblationRow))
				experiments.WriteOversub(w, m["a2_oversubscription"].([]experiments.OversubRow))
				experiments.WriteCycles(w, m["a3_negotiation_cycle"].([]experiments.CycleRow))
				experiments.WriteAblation(w, "A4: COSMIC dispatch discipline (Table I mix)", m["a4_dispatch_discipline"].([]experiments.AblationRow))
				experiments.WriteTransfer(w, m["a5_transfer_contention"].([]experiments.TransferRow))
				experiments.WriteAblation(w, "A6: claim reuse vs per-job negotiation (Table I mix)", m["a6_claim_reuse"].([]experiments.AblationRow))
			},
		},
	}
	order := []string{"motivation", "table2", "table2multi", "fig7", "fig8", "fig9", "table3", "fig10", "fig23", "dynamic", "estimation", "ablations"}
	return m, order
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("phibench: ")

	var (
		exp     = flag.String("exp", "all", "experiment to run (all or one name; see package docs)")
		seed    = flag.Int64("seed", 42, "experiment seed")
		nodes   = flag.Int("nodes", 8, "reference cluster size")
		real    = flag.Int("real", 1000, "Table I job instances")
		syn     = flag.Int("syn", 400, "synthetic jobs per distribution")
		out     = flag.String("o", "", "also write the report to this file")
		jsonOut = flag.String("json", "", "write machine-readable results to this file")
		obsDir  = flag.String("obs", "", "run each policy instrumented at the Table II config and write per-policy metric/event/series/dashboard dumps into this directory")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile (after GC) at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("create %s: %v", *cpuProfile, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("start cpu profile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote cpu profile to %s", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("create %s: %v", *memProfile, err)
			}
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("write heap profile: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote heap profile to %s", *memProfile)
		}()
	}

	o := experiments.Options{Seed: *seed, Nodes: *nodes, RealJobs: *real, SyntheticJobs: *syn}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatalf("create %s: %v", *out, err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	runners, order := specs()
	selected := order
	if *exp != "all" {
		if _, ok := runners[*exp]; !ok {
			log.Fatalf("unknown experiment %q (want one of: all %s)", *exp, strings.Join(order, " "))
		}
		selected = []string{*exp}
	}

	fmt.Fprintf(w, "phishare experiment report — seed=%d nodes=%d real=%d syn=%d\n\n",
		*seed, *nodes, *real, *syn)
	results := map[string]any{"options": o}
	for _, name := range selected {
		start := time.Now() //philint:ignore wallclock harness timing of the driver itself, not simulation state
		r := runners[name].run(o)
		runners[name].text(w, r)
		results[name] = r
		//philint:ignore wallclock harness timing of the driver itself, not simulation state
		log.Printf("%s done in %v", name, time.Since(start).Round(time.Millisecond))
	}

	if *obsDir != "" {
		start := time.Now() //philint:ignore wallclock harness timing of the driver itself, not simulation state
		obsRes, err := experiments.DumpObserved(o, *obsDir)
		if err != nil {
			log.Fatalf("observability dump: %v", err)
		}
		for _, r := range obsRes {
			log.Printf("observed %s: makespan %.0f s, artifacts in %s", r.Policy, r.Makespan.Seconds(), *obsDir)
		}
		//philint:ignore wallclock harness timing of the driver itself, not simulation state
		log.Printf("obs dump done in %v", time.Since(start).Round(time.Millisecond))
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatalf("create %s: %v", *jsonOut, err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			log.Fatalf("encode results: %v", err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote JSON results to %s", *jsonOut)
	}
}
