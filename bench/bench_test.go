package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"phishare/internal/experiments"
)

// TestAttributionFixture checks the layer split of a hand-made
// `go tool pprof -traces` report: runtime frames (and frames of helper
// packages such as units) are charged to the nearest ledger caller, a
// collector stack with no simulator frame goes to runtime.gc, a lane
// worker's stack counts as the layer on top of sim.fanWork, and the
// scheduler's idle stack goes to runtime.other.
func TestAttributionFixture(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "layers.traces"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := parseTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	s := attribute(samples)
	if s.total != 160e6 {
		t.Errorf("total = %g ns, want 160e6", s.total)
	}
	for _, tc := range []struct {
		layer     string
		self, cum float64
	}{
		{"condor", 0.1875, 0.1875},
		{gcLayer, 0.125, 0.125},
		{"phi", 0.625, 0.625},
		{otherLayer, 0.0625, 0.0625},
		{"sim", 0, 0.8125},
		{"experiments", 0, 0.1875},
		{"core", 0, 0},
	} {
		if s.self[tc.layer] != tc.self || s.cum[tc.layer] != tc.cum {
			t.Errorf("%s: self %g cum %g, want %g %g", tc.layer, s.self[tc.layer], s.cum[tc.layer], tc.self, tc.cum)
		}
	}
}

func TestParseQuantity(t *testing.T) {
	for in, want := range map[string]float64{
		"10000000ns": 1e7, "1.5ms": 1.5e6, "2s": 2e9, "17562B": 17562, "2.25kB": 2304, "-3MB": -3 << 20,
	} {
		if got, err := parseQuantity(in); err != nil || got != want {
			t.Errorf("parseQuantity(%q) = %g, %v; want %g", in, got, err, want)
		}
	}
	if _, err := parseQuantity("12parsecs"); err == nil {
		t.Error("parseQuantity accepted an unknown unit")
	}
}

// TestPaperCellMatchesPin runs the paper's testbed cell and its
// reference-path oracle once each at the pinned seed.
func TestPaperCellMatchesPin(t *testing.T) {
	c, err := cellByName("paper-mcck")
	if err != nil {
		t.Fatal(err)
	}
	in := c.generate(pinSeed)
	oracle := c.config(in, pinSeed, 0)
	oracle.Condor.DisableMatchCache = true
	oracle.Core.ReferenceSolver = true
	for _, cfg := range []experiments.RunConfig{c.config(in, pinSeed, 0), oracle} {
		res, err := runOnce(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d := digestOf(res); d != *paperPin {
			t.Errorf("outcome %v, want %v", d, *paperPin)
		}
		if got := math.Round(res.Makespan.Seconds()*10) / 10; got != 516.3 {
			t.Errorf("makespan %.1f s, want 516.3 s", got)
		}
	}
}

// toyCells swaps the workload table for toy-sized copies of every cell,
// with set-up and run counts cut to the minimum and no pins.
func toyCells(t *testing.T) {
	saved := cells
	t.Cleanup(func() { cells = saved })
	cells = nil
	for _, c := range saved {
		toy := *c
		toy.pin = nil
		toy.setups, toy.minRuns, toy.traceRuns = 1, 2, 2
		toy.sets = min(toy.sets, 2)
		toy.warmups = min(toy.warmups, 2)
		switch {
		case toy.diurnal:
			toy.jobs, toy.nodes = 2000, 40
		case toy.jobs > 200:
			toy.jobs, toy.nodes = 600, 6
		default:
			toy.jobs = 60
		}
		cells = append(cells, &toy)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runBench runs the command and decodes its last output line.
func runBench(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("bench %v exited %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestSmoke runs every workload at toy size, untraced and traced, through
// the command's own code paths.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	toyCells(t)
	if len(spec.Workloads) != len(cells) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(cells))
	}
	profiles := t.TempDir()
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			res := runBench(t, "--workload", w.Name, "--seconds", "0.3", "--trace", trace, "--profiles", profiles)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			if trace == "1" {
				sum := 0.0
				for _, l := range layers {
					sum += res.Metrics[l+".cpu_frac"].Value
				}
				if math.Abs(sum-1) > 0.01 {
					t.Errorf("%s: cpu_frac shares sum to %g", w.Name, sum)
				}
			}
		}
	}
}

// TestCorruptedPinFailsEveryRun: a pin no run can match makes every run
// of the pinned input fail.
func TestCorruptedPinFailsEveryRun(t *testing.T) {
	toyCells(t)
	c := cells[0]
	c.sets = 1
	c.pin = &digest{Makespan: 1}
	res := runBench(t, "--workload", c.name, "--seed", "11", "--seconds", "0")
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want every run failed", res.Correct, res.Attempted, res.Failed)
	}
}
