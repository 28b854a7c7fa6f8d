package experiments

import (
	"fmt"
	"io"
	"strings"

	"phishare/internal/obs"
	"phishare/internal/units"
	"phishare/internal/workload"
)

// Report renders experiment results as the text tables the paper prints.
// All drivers write to an io.Writer so cmd/phibench can tee them into
// EXPERIMENTS.md-style reports.

// WriteMotivation renders E1.
func WriteMotivation(w io.Writer, r MotivationResult) {
	fmt.Fprintf(w, "== E1: Motivation (Sec. III) — exclusive-policy core utilization ==\n")
	fmt.Fprintf(w, "real Table I mix:  %5.1f%%   (paper: ~50%%, \"38%%\" cluster average in abstract)\n", r.Real*100)
	for _, d := range sortedDists(r) {
		fmt.Fprintf(w, "synthetic %-10s %5.1f%%\n", d+":", r.Synthetic[distByName(d)]*100)
	}
	fmt.Fprintf(w, "(paper synthetic range: 38%%-63%%)\n\n")
}

// WriteTable2 renders E2.
func WriteTable2(w io.Writer, r Table2Result) {
	fmt.Fprintf(w, "== E2: Table II — makespan and footprint (%d jobs, %d nodes) ==\n", r.Jobs, r.Nodes)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s\n", "config", "makespan", "reduction", "footprint", "fp-reduc")
	for _, row := range r.Rows {
		if row.Policy == PolicyMC {
			fmt.Fprintf(w, "%-6s %9.0fs %10s %10s %10s\n", row.Policy, row.Makespan.Seconds(), "-", "-", "-")
			continue
		}
		fp := "n/a"
		fpr := "n/a"
		if row.Footprint > 0 {
			fp = fmt.Sprintf("%d", row.Footprint)
			fpr = fmt.Sprintf("%.1f%%", row.FootprintReduction*100)
		}
		fmt.Fprintf(w, "%-6s %9.0fs %9.1f%% %10s %10s\n",
			row.Policy, row.Makespan.Seconds(), row.Reduction*100, fp, fpr)
	}
	fmt.Fprintf(w, "exclusive-scheduling bound (total work / devices): %.0fs — sharing beats it\n", r.LowerBound.Seconds())
	fmt.Fprintf(w, "(paper: MC 3568s; MCC 2611s/27%%, footprint 6/25%%; MCCK 2183s/39%%, footprint 5/37.5%%)\n\n")
}

// WriteFig7 renders E3 as ASCII histograms.
func WriteFig7(w io.Writer, r Fig7Result) {
	fmt.Fprintf(w, "== E3: Fig. 7 — synthetic resource distributions ==\n")
	for _, h := range r.Histograms {
		fmt.Fprintf(w, "%-10s (mean level %.2f)\n", h.Dist, h.MeanLevel())
		max := 1
		for _, c := range h.Bins {
			if c > max {
				max = c
			}
		}
		for i, c := range h.Bins {
			bar := strings.Repeat("#", c*40/max)
			fmt.Fprintf(w, "  %4.1f-%4.1f |%-40s| %d\n", h.Edges[i], h.Edges[i+1], bar, c)
		}
	}
	fmt.Fprintln(w)
}

// WriteFig8 renders E4.
func WriteFig8(w io.Writer, r Fig8Result) {
	fmt.Fprintf(w, "== E4: Fig. 8 — makespan by resource distribution (%d jobs, %d nodes) ==\n", r.Jobs, r.Nodes)
	fmt.Fprintf(w, "%-10s %9s %9s %9s %10s %10s\n", "dist", "MC", "MCC", "MCCK", "MCC-red", "MCCK-red")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %8.0fs %8.0fs %8.0fs %9.1f%% %9.1f%%\n",
			row.Dist, row.MC.Seconds(), row.MCC.Seconds(), row.MCCK.Seconds(),
			reduction(row.MC, row.MCC)*100, reduction(row.MC, row.MCCK)*100)
	}
	fmt.Fprintf(w, "(paper shape: big gains for uniform/normal/low-skew; smallest gain for high-skew)\n\n")
}

// WriteFig9 renders E5.
func WriteFig9(w io.Writer, r Fig9Result) {
	fmt.Fprintf(w, "== E5: Fig. 9 — makespan vs cluster size (%d jobs) ==\n", r.Jobs)
	for _, s := range r.Series {
		fmt.Fprintf(w, "%s:\n", s.Dist)
		fmt.Fprintf(w, "  %-6s %9s %9s %9s\n", "nodes", "MC", "MCC", "MCCK")
		for i, n := range s.Sizes {
			fmt.Fprintf(w, "  %-6d %8.0fs %8.0fs %8.0fs\n",
				n, s.MC[i].Seconds(), s.MCC[i].Seconds(), s.MCCK[i].Seconds())
		}
	}
	fmt.Fprintf(w, "(paper shape: sharing gains shrink for tiny clusters at high job pressure;\n")
	fmt.Fprintf(w, " MCCK's margin over MCC grows with cluster size)\n\n")
}

// WriteTable3 renders E6.
func WriteTable3(w io.Writer, r Table3Result) {
	fmt.Fprintf(w, "== E6: Table III — footprint by distribution (reference %d nodes) ==\n", r.Nodes)
	fmt.Fprintf(w, "%-10s %4s %12s %12s\n", "dist", "MC", "MCC", "MCCK")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10s %4d %5d (%4.1f%%) %5d (%4.1f%%)\n",
			row.Dist, row.MC,
			row.MCC, fpReduction(r.Nodes, row.MCC)*100,
			row.MCCK, fpReduction(r.Nodes, row.MCCK)*100)
	}
	fmt.Fprintf(w, "(paper: uniform 6/5, normal 6/5, low-skew 4/3, high-skew 6/6)\n\n")
}

// WriteFig10 renders E7.
func WriteFig10(w io.Writer, r Fig10Result) {
	fmt.Fprintf(w, "== E7: Fig. 10 — constant job pressure (normal dist, 200 jobs/node) ==\n")
	fmt.Fprintf(w, "%-6s %6s %9s %9s %9s %10s %10s\n", "nodes", "jobs", "MC", "MCC", "MCCK", "K-vs-MC", "K-vs-MCC")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%-6d %6d %8.0fs %8.0fs %8.0fs %9.1f%% %9.1f%%\n",
			p.Nodes, p.Jobs, p.MC.Seconds(), p.MCC.Seconds(), p.MCCK.Seconds(),
			reduction(p.MC, p.MCCK)*100, reduction(p.MCC, p.MCCK)*100)
	}
	fmt.Fprintf(w, "(paper at 8 nodes: MCCK ~40%% over MC, ~11%% over MCC)\n\n")
}

// WriteFig23 renders E8 timelines.
func WriteFig23(w io.Writer, r Fig23Result) {
	fmt.Fprintf(w, "== E8: Figs. 2-3 — offload overlap on a shared coprocessor ==\n")
	fmt.Fprintf(w, "Fig. 2 (two 240-thread jobs; offloads serialize, host gaps interleave):\n")
	fmt.Fprint(w, obs.RenderOffloads(r.Maximal, fig23Names, 72, 240))
	fmt.Fprintf(w, "concurrent makespan %.0fs vs sequential %.0fs\n\n",
		r.MaximalMakespan.Seconds(), r.MaximalSequential.Seconds())
	fmt.Fprintf(w, "Fig. 3 (two 120-thread jobs; offloads overlap freely):\n")
	fmt.Fprint(w, obs.RenderOffloads(r.Partial, fig23Names, 72, 240))
	fmt.Fprintf(w, "concurrent makespan %.0fs vs sequential %.0fs\n\n",
		r.PartialMakespan.Seconds(), r.PartialSequential.Seconds())
}

// WriteAblation renders a generic ablation row list.
func WriteAblation(w io.Writer, title string, rows []AblationRow) {
	fmt.Fprintf(w, "== %s ==\n", title)
	for _, r := range rows {
		if r.Reduction != 0 {
			fmt.Fprintf(w, "%-22s %8.0fs  (%.1f%% vs MC)\n", r.Name, r.Makespan.Seconds(), r.Reduction*100)
		} else {
			fmt.Fprintf(w, "%-22s %8.0fs\n", r.Name, r.Makespan.Seconds())
		}
	}
	fmt.Fprintln(w)
}

// WriteOversub renders A2.
func WriteOversub(w io.Writer, rows []OversubRow) {
	fmt.Fprintf(w, "== A2: oversubscription harm (Sec. II-C / III) ==\n")
	fmt.Fprintf(w, "%-24s %10s %8s %7s\n", "stack", "makespan", "crashes", "failed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %9.0fs %8d %7d\n", r.Name, r.Makespan.Seconds(), r.Crashes, r.Failed)
	}
	fmt.Fprintln(w)
}

// WriteCycles renders A3.
func WriteCycles(w io.Writer, rows []CycleRow) {
	fmt.Fprintf(w, "== A3: negotiation-cycle sensitivity (MCCK, normal dist) ==\n")
	for _, r := range rows {
		fmt.Fprintf(w, "cycle %-5v -> makespan %8.0fs\n", r.Cycle, r.Makespan.Seconds())
	}
	fmt.Fprintln(w)
}

func reduction(base, m units.Tick) float64 {
	if base <= 0 {
		return 0
	}
	return 1 - float64(m)/float64(base)
}

func fpReduction(ref, fp int) float64 {
	if fp <= 0 {
		return 0
	}
	return 1 - float64(fp)/float64(ref)
}

func sortedDists(r MotivationResult) []string {
	out := make([]string, 0, len(r.Synthetic))
	for _, d := range distOrder() {
		if _, ok := r.Synthetic[d]; ok {
			out = append(out, d.String())
		}
	}
	return out
}

func distOrder() []workload.Distribution { return workload.Distributions() }

func distByName(s string) workload.Distribution {
	d, err := workload.ParseDistribution(s)
	if err != nil {
		panic(err)
	}
	return d
}

// WriteTransfer renders A5.
func WriteTransfer(w io.Writer, rows []TransferRow) {
	fmt.Fprintf(w, "== A5: PCIe transfer contention (SGEMM-like jobs with explicit DMA) ==\n")
	fmt.Fprintf(w, "%-6s %12s %10s\n", "config", "link MB/s", "makespan")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %12.0f %9.0fs\n", r.Policy, r.BandwidthMBps, r.Makespan.Seconds())
	}
	fmt.Fprintf(w, "(sharing multiplexes concurrent DMA over the node link; a starved link\n")
	fmt.Fprintf(w, " erodes the sharing advantage — a dimension outside the paper's knapsack)\n\n")
}
