// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON ledger, so benchmark runs can be diffed across PRs
// (the BENCH_<n>.json regression trail; see `make bench`).
//
// Usage:
//
//	go test -run '^$' -bench ... -benchmem . | benchjson -o BENCH_1.json -label after
//
// The output file holds one entry per label; re-running with the same -o and
// a different -label merges into the existing file, which is how a single
// BENCH_1.json carries both the "before" and "after" sides of an
// optimization PR. Non-benchmark lines (goos/goarch/cpu headers, PASS/ok
// trailers) are captured into the run's environment block or skipped.
//
// Gate mode turns the ledger into a CI regression fence:
//
//	go test -run '^$' -bench BenchmarkEndToEndMCCK -benchmem -count 3 . \
//	    | benchjson -gate BENCH_5.json -gate-label after
//
// compares the fresh sweep on stdin against the named label of a
// checked-in ledger and exits 1 if any benchmark's ns/op or allocs/op
// regressed by more than -tolerance (default 10%). Repeated -count lines
// are collapsed to their per-metric minimum first, which damps host noise:
// the minimum of several runs estimates the true cost, while a mean would
// absorb scheduler hiccups and flake the gate.
//
// Gate mode also fences observability overhead within the fresh sweep
// itself: wherever it sees an X/disabled and X/instrumented sub-benchmark
// pair, the instrumented leg's ns/op must stay within -obs-tolerance
// (default 15%) of its disabled twin. That is a same-host, same-run
// comparison, so it needs no ledger history and cannot drift with hardware.
// Under -count > 1 the check pairs same-index readings (which ran back to
// back) and takes the smallest ratio, so a load spike hitting one leg of
// one count does not read as instrumentation overhead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// run is one labelled benchmark sweep.
type run struct {
	// Env echoes the goos/goarch/pkg/cpu header of the sweep.
	Env map[string]string `json:"env,omitempty"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to its
	// metrics: ns/op, B/op, allocs/op, and any b.ReportMetric customs.
	Benchmarks map[string]benchResult `json:"benchmarks"`
	// samples keeps each benchmark's per-count ns/op readings in input
	// order (minResult collapses Benchmarks to minima); the obs pair-gate
	// compares temporally adjacent readings, which damps host-load drift
	// that would skew a ratio of two independent minima.
	samples map[string][]float64
}

type benchResult struct {
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		out       = flag.String("o", "", "JSON file to write (merged with existing content); empty writes to stdout")
		label     = flag.String("label", "run", "label for this sweep inside the JSON file (e.g. before, after)")
		gate      = flag.String("gate", "", "ledger file to gate against instead of writing; exit 1 on regression")
		gateLabel = flag.String("gate-label", "after", "ledger label the gate compares against")
		tolerance = flag.Float64("tolerance", 0.10, "allowed fractional regression in gate mode")
		obsTol    = flag.Float64("obs-tolerance", 0.15, "allowed fractional ns/op overhead of an X/instrumented sub-benchmark over its X/disabled twin in gate mode")
	)
	flag.Parse()

	r := run{Env: map[string]string{}, Benchmarks: map[string]benchResult{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			name, res, err := parseBenchLine(line)
			if err != nil {
				log.Fatalf("parse %q: %v", line, err)
			}
			if ns, ok := res.Metrics["ns/op"]; ok {
				if r.samples == nil {
					r.samples = map[string][]float64{}
				}
				r.samples[name] = append(r.samples[name], ns)
			}
			if prev, ok := r.Benchmarks[name]; ok {
				res = minResult(prev, res) // -count > 1: keep per-metric minima
			}
			r.Benchmarks[name] = res
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "pkg:"), strings.HasPrefix(line, "cpu:"):
			k, v, _ := strings.Cut(line, ":")
			r.Env[k] = strings.TrimSpace(v)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatalf("read stdin: %v", err)
	}
	if len(r.Benchmarks) == 0 {
		log.Fatal("no benchmark lines on stdin (did the -bench regex match anything?)")
	}

	if *gate != "" {
		code := runGate(*gate, *gateLabel, *tolerance, r)
		if runObsGate(*obsTol, r) != 0 {
			code = 1
		}
		os.Exit(code)
	}

	// Merge into any existing ledger so one file accumulates labels.
	ledger := map[string]run{}
	if *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, &ledger); err != nil {
				log.Fatalf("existing %s is not a benchjson ledger: %v", *out, err)
			}
		}
	}
	ledger[*label] = r

	data, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmarks under label %q to %s", len(r.Benchmarks), *label, *out)
}

// minResult merges two sweeps of the same benchmark, keeping the minimum of
// every metric the two share (and any metric only one reports).
func minResult(a, b benchResult) benchResult {
	out := benchResult{Iterations: a.Iterations, Metrics: map[string]float64{}}
	if b.Iterations > out.Iterations {
		out.Iterations = b.Iterations
	}
	for k, v := range a.Metrics {
		out.Metrics[k] = v
	}
	for k, v := range b.Metrics { //philint:ignore mapiter each iteration reads and writes only out.Metrics[k]
		if old, ok := out.Metrics[k]; !ok || v < old {
			out.Metrics[k] = v
		}
	}
	return out
}

// gatedMetrics are the regression-fenced series: wall time, allocation
// count, and the streaming engine's live-heap high-water mark (peak-heap-B,
// reported by BenchmarkMillionJob) — the residency bound is a perf contract,
// so it is fenced like one. B/op and the remaining custom metrics are
// recorded but not gated — bytes track allocs closely, and outcome metrics
// (e.g. makespan-s) are owned by the test suite, not performance.
var gatedMetrics = []string{"ns/op", "allocs/op", "peak-heap-B"}

// runGate compares the fresh sweep against ledger[label] and returns the
// process exit code: 0 clean, 1 on any regression beyond the tolerance.
func runGate(ledgerPath, label string, tolerance float64, fresh run) int {
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		log.Fatalf("gate ledger: %v", err)
	}
	ledger := map[string]run{}
	if err := json.Unmarshal(data, &ledger); err != nil {
		log.Fatalf("gate ledger %s: %v", ledgerPath, err)
	}
	base, ok := ledger[label]
	if !ok {
		log.Fatalf("gate ledger %s has no label %q", ledgerPath, label)
	}
	names := make([]string, 0, len(fresh.Benchmarks))
	for name := range fresh.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	compared := 0
	for _, name := range names {
		want, ok := base.Benchmarks[name]
		if !ok {
			log.Printf("%s: not in ledger, skipped", name)
			continue
		}
		got := fresh.Benchmarks[name]
		for _, metric := range gatedMetrics {
			if metric == "ns/op" && isObsPairLeg(name, fresh) {
				// The leg's wall time is fenced same-sweep by the obs
				// pair-gate; against the ledger only its allocs/op is
				// meaningful (exact and host-independent). Comparing a
				// noisy instrumented leg to a single recorded ns/op
				// minimum flakes without measuring anything the
				// pair-gate and the macro benchmark don't.
				continue
			}
			w, okW := want.Metrics[metric]
			g, okG := got.Metrics[metric]
			if !okW || !okG {
				continue
			}
			compared++
			limit := w * (1 + tolerance)
			status := "ok"
			if g > limit {
				status = "REGRESSION"
				failed++
			}
			log.Printf("%s %s: %.6g vs ledger %.6g (limit %.6g) %s", name, metric, g, w, limit, status)
		}
	}
	if compared == 0 {
		log.Print("gate compared nothing: no overlapping benchmarks/metrics")
		return 1
	}
	if failed > 0 {
		log.Printf("gate FAILED: %d metric(s) regressed more than %.0f%%", failed, tolerance*100)
		return 1
	}
	log.Printf("gate clean: %d metric(s) within %.0f%% of %s[%s]", compared, tolerance*100, ledgerPath, label)
	return 0
}

// isObsPairLeg reports whether name is one half of an obs overhead pair
// (X/disabled with an X/instrumented twin, or vice versa) present in the
// fresh sweep — the legs whose wall time the pair-gate owns.
func isObsPairLeg(name string, fresh run) bool {
	if base, ok := strings.CutSuffix(name, "/disabled"); ok {
		_, ok := fresh.Benchmarks[base+"/instrumented"]
		return ok
	}
	if base, ok := strings.CutSuffix(name, "/instrumented"); ok {
		_, ok := fresh.Benchmarks[base+"/disabled"]
		return ok
	}
	return false
}

// runObsGate fences instrumentation overhead inside one sweep: for every
// benchmark pair X/disabled and X/instrumented, the instrumented ns/op must
// not exceed disabled × (1 + tolerance). Pairs compare within the same run
// on the same host, so the check holds regardless of where CI executes.
//
// With -count > 1 the gate pairs the i-th disabled reading with the i-th
// instrumented reading and takes the smallest ratio: the two legs of one
// count execute back to back, so pairing by index cancels host-load drift
// that a ratio of two independently chosen minima (possibly many seconds
// apart) would absorb as phantom overhead. Sweeps without such pairs pass
// vacuously.
func runObsGate(tolerance float64, fresh run) int {
	names := make([]string, 0, len(fresh.Benchmarks))
	for name := range fresh.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed, compared := 0, 0
	for _, name := range names {
		base, ok := strings.CutSuffix(name, "/disabled")
		if !ok {
			continue
		}
		if _, ok := fresh.Benchmarks[base+"/instrumented"]; !ok {
			continue
		}
		dis, ins := fresh.samples[name], fresh.samples[base+"/instrumented"]
		n := len(dis)
		if len(ins) < n {
			n = len(ins)
		}
		if n == 0 {
			continue
		}
		best, bestD, bestG := -1.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			if dis[i] <= 0 {
				continue
			}
			if r := ins[i] / dis[i]; best < 0 || r < best {
				best, bestD, bestG = r, dis[i], ins[i]
			}
		}
		if best < 0 {
			continue
		}
		compared++
		status := "ok"
		if best > 1+tolerance {
			status = "OVERHEAD"
			failed++
		}
		log.Printf("%s instrumented ns/op: %.6g vs disabled %.6g (best of %d paired runs, +%.1f%%, limit +%.0f%%) %s",
			base, bestG, bestD, n, 100*(best-1), tolerance*100, status)
	}
	if failed > 0 {
		log.Printf("obs gate FAILED: %d pair(s) exceed %.0f%% instrumentation overhead", failed, tolerance*100)
		return 1
	}
	if compared > 0 {
		log.Printf("obs gate clean: %d pair(s) within %.0f%% of their disabled twins", compared, tolerance*100)
	}
	return 0
}

// parseBenchLine splits one result line:
//
//	BenchmarkName-8   123   456.7 ns/op   89 B/op   2 allocs/op   3.14 custom-metric
//
// into the name (CPU suffix stripped) and its (value, unit) metric pairs.
func parseBenchLine(line string) (string, benchResult, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return "", benchResult{}, fmt.Errorf("want 'name iters {value unit}...', got %d fields", len(fields))
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return "", benchResult{}, fmt.Errorf("iterations: %w", err)
	}
	res := benchResult{Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", benchResult{}, fmt.Errorf("metric %s: %w", fields[i+1], err)
		}
		res.Metrics[fields[i+1]] = v
	}
	return name, res, nil
}
