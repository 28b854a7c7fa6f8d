package experiments

import (
	"fmt"
	"io"
	"math"

	"phishare/internal/units"
)

// Multi-seed robustness: the paper reports single runs; a reproduction
// should show its headline numbers are not seed artifacts. Table2Multi
// re-draws the Table I workload under several seeds and reports the
// mean ± standard deviation of each configuration's makespan reduction.

// SeedStats summarizes one policy across seeds.
type SeedStats struct {
	Policy        string
	MeanMakespan  units.Tick
	StdMakespan   units.Tick
	MeanReduction float64 // vs MC, per-seed then averaged (0 for MC)
	StdReduction  float64
	Seeds         int
}

// Table2Multi runs the Table II comparison across the given seeds
// (default 1..5) and aggregates. Runs execute concurrently.
func Table2Multi(o Options, seeds []int64) []SeedStats {
	o = o.Defaults()
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	type trial struct {
		makespans map[string]units.Tick
	}
	trials := parmap(len(seeds), func(i int) trial {
		opts := o
		opts.Seed = seeds[i]
		jobs := opts.realJobSet()
		t := trial{makespans: map[string]units.Tick{}}
		for _, p := range Policies() {
			t.makespans[p] = Run(RunConfig{
				Policy: p, Nodes: opts.Nodes, Jobs: jobs, Seed: opts.Seed,
			}).Makespan
		}
		return t
	})

	var out []SeedStats
	for _, p := range Policies() {
		var ms, reds []float64
		for _, t := range trials {
			ms = append(ms, float64(t.makespans[p]))
			if p != PolicyMC {
				reds = append(reds, 1-float64(t.makespans[p])/float64(t.makespans[PolicyMC]))
			}
		}
		mMean, mStd := meanStd(ms)
		rMean, rStd := meanStd(reds)
		out = append(out, SeedStats{
			Policy:        p,
			MeanMakespan:  units.Tick(mMean),
			StdMakespan:   units.Tick(mStd),
			MeanReduction: rMean,
			StdReduction:  rStd,
			Seeds:         len(seeds),
		})
	}
	return out
}

// meanStd returns the mean and (population) standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// WriteTable2Multi renders the multi-seed aggregation.
func WriteTable2Multi(w io.Writer, stats []SeedStats) {
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(w, "== Table II across %d workload seeds (mean ± std) ==\n", stats[0].Seeds)
	fmt.Fprintf(w, "%-6s %18s %16s\n", "config", "makespan", "reduction")
	for _, s := range stats {
		red := "-"
		if s.Policy != PolicyMC {
			red = fmt.Sprintf("%.1f%% ± %.1f%%", s.MeanReduction*100, s.StdReduction*100)
		}
		fmt.Fprintf(w, "%-6s %9.0fs ± %4.0fs %16s\n",
			s.Policy, s.MeanMakespan.Seconds(), s.StdMakespan.Seconds(), red)
	}
	fmt.Fprintf(w, "(paper single-run: MCC 27%%, MCCK 39%%)\n\n")
}
