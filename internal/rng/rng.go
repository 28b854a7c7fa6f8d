// Package rng provides the deterministic random distributions used by the
// workload generators and the MCC random-packing baseline.
//
// Every experiment in the paper is a controlled run over a fixed job set; to
// make each table and figure exactly reproducible, all randomness flows
// through a Source seeded from the experiment configuration. The package
// wraps math/rand (the v1 API, which has a stable algorithm across Go
// releases) and adds the truncated/skewed normal draws used to build the
// Fig. 7 resource distributions.
package rng

import (
	"fmt"
	"math"
	"math/rand"
)

// Source is a deterministic stream of random values.
type Source struct {
	r *rand.Rand
}

// New returns a Source seeded with seed. Equal seeds yield equal streams.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent child stream identified by name. Child streams
// let one experiment seed produce decoupled randomness for, e.g., workload
// generation and scheduler tie-breaking, so adding draws to one does not
// perturb the other.
func (s *Source) Fork(name string) *Source {
	h := int64(14695981039346656037 & 0x7fffffffffffffff) // FNV offset basis, masked positive
	for i := 0; i < len(name); i++ {
		h ^= int64(name[i])
		h *= 1099511628211 // FNV prime
		h &= 0x7fffffffffffffff
	}
	return New(h ^ s.r.Int63())
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.r.Float64()
}

// UniformInt returns a uniform integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (s *Source) UniformInt(lo, hi int) int {
	if hi < lo {
		panic(fmt.Sprintf("rng: UniformInt range [%d, %d] is empty", lo, hi))
	}
	return lo + s.r.Intn(hi-lo+1)
}

// Normal returns a normal draw with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// TruncNormal returns a normal draw with the given mean and standard
// deviation, truncated by resampling to [lo, hi]. It panics if hi < lo.
// Resampling (rather than clamping) keeps the interior shape of the
// distribution intact, which matters for the Fig. 7 skew experiments:
// clamping would pile probability mass onto the endpoints and exaggerate
// the number of maximal-resource jobs.
func (s *Source) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if hi < lo {
		panic(fmt.Sprintf("rng: TruncNormal range [%g, %g] is empty", lo, hi))
	}
	if stddev <= 0 {
		return math.Min(hi, math.Max(lo, mean))
	}
	for i := 0; i < 1024; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	// The acceptance region is astronomically unlikely to be missed 1024
	// times unless mean is far outside [lo, hi]; fall back to clamping.
	return math.Min(hi, math.Max(lo, mean))
}

// Exp returns an exponential draw with the given mean. Used for jitter on
// job phase durations.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Pick returns a uniformly random element index weighted by weights.
// Weights must be non-negative with a positive sum; it panics otherwise.
func (s *Source) Pick(weights []float64) int {
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic(fmt.Sprintf("rng: Pick weight[%d] = %g is invalid", i, w))
		}
		total += w
	}
	if total <= 0 {
		panic("rng: Pick weights sum to zero")
	}
	x := s.Uniform(0, total)
	for i, w := range weights {
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1 // floating-point slack lands on the last bucket
}
