// Package workload builds the synthetic job sets used in the paper's
// sensitivity study (§V-B, Fig. 7).
//
// Each synthetic job has a single resource level x ∈ [0, 1] that drives both
// its memory and thread requirements — the paper assumes "jobs with low Xeon
// Phi memory requirements also have low thread requirements, and vice
// versa", which is why Fig. 7's horizontal axis represents both resources at
// once. Four distributions over x are defined: uniform, normal, low-resource
// skew and high-resource skew (mean shifted one standard deviation below or
// above the normal mean).
package workload

import (
	"fmt"

	"phishare/internal/job"
	"phishare/internal/rng"
	"phishare/internal/units"
)

// Distribution selects one of the Fig. 7 resource distributions.
type Distribution int

const (
	// Uniform spreads jobs equally across resource levels.
	Uniform Distribution = iota
	// Normal concentrates jobs in the mid-resource range.
	Normal
	// LowSkew shifts the normal mean one standard deviation toward low
	// resource requirements.
	LowSkew
	// HighSkew shifts the normal mean one standard deviation toward high
	// resource requirements.
	HighSkew
)

// Distributions lists all four in presentation order (Fig. 7 left to right).
func Distributions() []Distribution {
	return []Distribution{Uniform, Normal, LowSkew, HighSkew}
}

func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Normal:
		return "normal"
	case LowSkew:
		return "low-skew"
	case HighSkew:
		return "high-skew"
	}
	return fmt.Sprintf("Distribution(%d)", int(d))
}

// ParseDistribution parses a distribution name as printed by String.
func ParseDistribution(s string) (Distribution, error) {
	for _, d := range Distributions() {
		if d.String() == s {
			return d, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown distribution %q", s)
}

// Config parameterizes synthetic job generation.
type Config struct {
	// Dist is the resource-level distribution.
	Dist Distribution
	// N is the number of jobs; the paper uses 400 for Figs. 8–9 and
	// Table III, and up to 1600 in the Fig. 10 job-pressure experiment.
	N int
	// Seed makes the set reproducible.
	Seed int64

	// Resource mapping. Defaults (zero values): memory in [MinMem, MaxMem]
	// = [256 MB, 2 GB] and threads in [MinThreads, MaxThreads] = [24, 240]
	// quantized to whole cores. Every job fits a single 8 GB device with
	// room to share (§III: "each job is guaranteed to fit within one Xeon
	// Phi"); the memory ceiling matches the bulk of the Table I range so
	// that, as in the paper's sensitivity study, the binding resource is
	// thread width rather than memory alone.
	MinMem, MaxMem         units.MB
	MinThreads, MaxThreads units.Threads
}

func (c Config) withDefaults() Config {
	if c.MinMem == 0 {
		c.MinMem = 256
	}
	if c.MaxMem == 0 {
		c.MaxMem = units.GB(2)
	}
	if c.MinThreads == 0 {
		c.MinThreads = 24
	}
	if c.MaxThreads == 0 {
		c.MaxThreads = 240
	}
	return c
}

// The normal-family parameters behind Fig. 7: a mid-range mean with
// σ = 0.15, the skewed variants shifting the mean by exactly one σ.
const (
	normalMean   = 0.5
	normalStddev = 0.15
)

// Level draws one resource level in [0, 1] from the distribution.
func (d Distribution) Level(r *rng.Source) float64 {
	switch d {
	case Uniform:
		return r.Float64()
	case Normal:
		return r.TruncNormal(normalMean, normalStddev, 0, 1)
	case LowSkew:
		return r.TruncNormal(normalMean-normalStddev, normalStddev, 0, 1)
	case HighSkew:
		return r.TruncNormal(normalMean+normalStddev, normalStddev, 0, 1)
	}
	panic("workload: invalid distribution")
}

// Generate builds the synthetic job set.
func Generate(cfg Config) []*job.Job {
	cfg = cfg.withDefaults()
	r := rng.New(cfg.Seed).Fork("workload-" + cfg.Dist.String())
	jobs := make([]*job.Job, cfg.N)
	for i := range jobs {
		jobs[i] = synthesize(i, fmt.Sprintf("syn-%s#%d", cfg.Dist, i), cfg, r)
	}
	return jobs
}

// synthesize draws one synthetic offload job, named name, at resource
// level x.
func synthesize(id int, name string, cfg Config, r *rng.Source) *job.Job {
	x := cfg.Dist.Level(r)

	mem := cfg.MinMem + units.MB(x*float64(cfg.MaxMem-cfg.MinMem))
	// Threads quantized to whole cores (multiples of 4), min one core's
	// worth above the floor.
	rawTh := float64(cfg.MinThreads) + x*float64(cfg.MaxThreads-cfg.MinThreads)
	th := units.Threads((int(rawTh)+3)/4) * 4
	if th < cfg.MinThreads {
		th = cfg.MinThreads
	}
	if th > cfg.MaxThreads {
		th = cfg.MaxThreads
	}

	j := &job.Job{
		ID:       id,
		Name:     name,
		Workload: "synthetic",
		Mem:      mem,
		Threads:  th,
	}
	j.ActualPeakMem = units.MB(float64(mem) * r.Uniform(0.85, 1.0))

	// Phase profile: like the Table I apps, a setup host phase followed by
	// k offload/host-gap pairs. Offload intensity is independent of the
	// resource level so that the distributions differ only in resource
	// requirements, as in the paper's controlled experiments.
	k := r.UniformInt(4, 10)
	j.Phases = make([]job.Phase, 0, 1+2*k)
	j.Phases = append(j.Phases, job.Phase{
		Kind:     job.HostPhase,
		Duration: units.Tick(r.UniformInt(int(1*units.Second), int(2*units.Second))),
	})
	for i := 0; i < k; i++ {
		j.Phases = append(j.Phases, job.Phase{
			Kind:     job.OffloadPhase,
			Duration: units.Tick(r.UniformInt(int(1500*units.Millisecond), int(3500*units.Millisecond))),
			Threads:  th,
		})
		j.Phases = append(j.Phases, job.Phase{
			Kind:     job.HostPhase,
			Duration: units.Tick(r.UniformInt(int(500*units.Millisecond), int(2*units.Second))),
		})
	}
	return j
}

// Histogram bins the job set's resource levels for the Fig. 7 reproduction.
// Levels are inferred from memory, which maps linearly to the level.
type Histogram struct {
	Dist  Distribution
	Bins  []int     // count per bin
	Edges []float64 // len(Bins)+1 bin edges in resource-level space
	Total int

	cfg Config // resource mapping for Observe
}

// NewHistogram returns an empty nbins-bin histogram using cfg's resource
// mapping; feed jobs through Observe. Streaming consumers use this pair so
// the set never has to be resident.
func NewHistogram(dist Distribution, cfg Config, nbins int) *Histogram {
	h := &Histogram{Dist: dist, Bins: make([]int, nbins),
		Edges: make([]float64, nbins+1), cfg: cfg.withDefaults()}
	for i := 0; i <= nbins; i++ {
		h.Edges[i] = float64(i) / float64(nbins)
	}
	return h
}

// Observe bins one job.
func (h *Histogram) Observe(j *job.Job) {
	nbins := len(h.Bins)
	span := float64(h.cfg.MaxMem - h.cfg.MinMem)
	x := float64(j.Mem-h.cfg.MinMem) / span
	bin := int(x * float64(nbins))
	if bin >= nbins {
		bin = nbins - 1
	}
	if bin < 0 {
		bin = 0
	}
	h.Bins[bin]++
	h.Total++
}

// BuildHistogram bins a synthetic job set into nbins equal-width resource
// bins.
func BuildHistogram(dist Distribution, jobs []*job.Job, cfg Config, nbins int) Histogram {
	h := NewHistogram(dist, cfg, nbins)
	for _, j := range jobs {
		h.Observe(j)
	}
	return *h
}

// MeanLevel returns the histogram's mean resource level, the summary used
// to verify the skew directions.
func (h Histogram) MeanLevel() float64 {
	if h.Total == 0 {
		return 0
	}
	sum := 0.0
	for i, c := range h.Bins {
		mid := (h.Edges[i] + h.Edges[i+1]) / 2
		sum += mid * float64(c)
	}
	return sum / float64(h.Total)
}
