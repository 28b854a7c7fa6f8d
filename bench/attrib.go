package main

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// simLayers are the simulator's packages the ledger charges by name.
var simLayers = []string{
	"sim", "condor", "classad", "core", "knapsack", "scheduler", "cosmic", "phi",
	"cluster", "runner", "workload", "metrics", "obs", "job", "rng", "experiments",
}

// layers are the ledger's buckets: the simulator's packages plus two
// runtime buckets for samples with no simulator frame.
var layers = append(slices.Clip(simLayers), gcLayer, otherLayer)

const (
	gcLayer    = "runtime.gc"
	otherLayer = "runtime.other"
	modulePkg  = "phishare/internal/"
)

// gcWorkers are the runtime's background collector goroutines.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// sample is one stack of a `go tool pprof -traces` report, leaf first.
type sample struct {
	value  float64
	frames []string
}

// parseTraces reads a `go tool pprof -traces` report. Each sample is a
// block between separator lines; its first frame line carries the value,
// right-aligned in ten columns, then three spaces and the function name.
// Label lines ("key:  value") carry no frame and are skipped.
func parseTraces(r io.Reader) ([]sample, error) {
	var out []sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	inBody := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inBody = true
			continue
		}
		if !inBody {
			continue // report header
		}
		trimmed := strings.TrimLeft(line, " ")
		if len(line)-len(trimmed) >= 13 {
			// Continuation frame: the value column is blank.
			if len(out) == 0 {
				return nil, fmt.Errorf("pprof traces: frame %q before any sample", trimmed)
			}
			last := &out[len(out)-1]
			last.frames = append(last.frames, frameName(trimmed))
			continue
		}
		val, name, ok := strings.Cut(trimmed, "   ")
		if !ok {
			continue
		}
		name = frameName(name)
		v, err := parseQuantity(val)
		if err != nil {
			return nil, fmt.Errorf("pprof traces: %w", err)
		}
		out = append(out, sample{value: v, frames: []string{name}})
	}
	return out, sc.Err()
}

func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}

// quantityUnits scales pprof's unit suffixes to nanoseconds or bytes.
var quantityUnits = map[string]float64{
	"ns": 1, "us": 1e3, "µs": 1e3, "ms": 1e6, "s": 1e9, "mins": 60e9, "hrs": 3600e9,
	"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30, "TB": 1 << 40,
	"": 1,
}

// parseQuantity reads a value such as "10ms", "1.50MB" or "-2048B".
func parseQuantity(s string) (float64, error) {
	i := strings.LastIndexAny(s, "0123456789.") + 1
	scale, ok := quantityUnits[s[i:]]
	if !ok {
		return 0, fmt.Errorf("unknown unit in %q", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q: %w", s, err)
	}
	return v * scale, nil
}

// layerOf maps a function name to its simulator layer, or "" for frames
// outside the ledger's packages (the runtime, the standard library, the
// benchmark itself, helper packages such as units).
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePkg)
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	if slices.Contains(simLayers, pkg) {
		return pkg
	}
	return ""
}

// selfLayer charges a sample to its innermost ledger frame: runtime work
// such as allocation or map access goes to the simulator code that caused
// it. A sample with no ledger frame is collector work when a GC worker is
// on its stack and other runtime work otherwise.
func selfLayer(frames []string) string {
	gc := false
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
		gc = gc || gcWorkers[fn]
	}
	if gc {
		return gcLayer
	}
	return otherLayer
}

// shares is a profile's split across layers: self is each layer's share of
// the total charged by selfLayer, and sums to 1; cum is the share of
// samples with the layer anywhere on the stack (the runtime buckets' cum
// equals their self).
type shares struct {
	total     float64
	self, cum map[string]float64
}

func attribute(samples []sample) shares {
	s := shares{self: map[string]float64{}, cum: map[string]float64{}}
	for _, smp := range samples {
		s.total += smp.value
		self := selfLayer(smp.frames)
		s.self[self] += smp.value
		seen := map[string]bool{self: true}
		s.cum[self] += smp.value
		for _, fn := range smp.frames {
			if l := layerOf(fn); l != "" && !seen[l] {
				seen[l] = true
				s.cum[l] += smp.value
			}
		}
	}
	if s.total != 0 {
		for _, m := range []map[string]float64{s.self, s.cum} {
			for l := range m {
				m[l] /= s.total
			}
		}
	}
	return s
}
