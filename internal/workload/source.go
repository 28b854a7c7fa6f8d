// Lazy arrival sources: the streaming workload layer.
//
// The paper's evaluation submits a fixed job slice at t=0, which is fine for
// Table II but caps the simulator at workloads that fit in memory twice over
// (the slice itself plus every pre-scheduled submit event). A Source instead
// yields arrivals one at a time, in non-decreasing time order, so the
// experiment driver can pull the next arrival from a single self-rearming
// generator timer and the resident footprint stays O(active jobs) no matter
// how many jobs the stream carries.
//
// Two families ship:
//
//   - FromSlice wraps a pre-materialized set (the paper's static batch)
//     in the Source interface.
//   - Diurnal synthesizes planet-scale traffic: a nonhomogeneous Poisson
//     arrival process whose rate follows a day-night curve, with burst and
//     tenant-skew knobs and per-arrival synthetic job bodies drawn from the
//     Fig. 7 resource distributions. Generation is strictly incremental —
//     O(1) state per arrival — and deterministic in the seed.
package workload

import (
	"fmt"
	"math"

	"phishare/internal/job"
	"phishare/internal/phi"
	"phishare/internal/rng"
	"phishare/internal/units"
)

// Arrival is one lazily generated job arrival.
type Arrival struct {
	// Job is the arriving job. The source hands over ownership: once
	// returned, the source keeps no reference, so a streaming consumer that
	// drops the job after completion has dropped the only copy.
	Job *job.Job
	// Tenant is the submitting user for fair-share accounting; empty means
	// the anonymous single-user default.
	Tenant string
	// At is the absolute arrival (submission) time.
	At units.Tick
}

// Source is a lazy, time-ordered arrival stream. Next returns the next
// arrival and true, or a zero Arrival and false once the stream is
// exhausted. Arrival times are non-decreasing. Sources are single-pass;
// build a fresh one (same config, same seed) to replay a stream.
type Source interface {
	Next() (Arrival, bool)
	// Len is the total number of arrivals the source will yield over its
	// lifetime (already-consumed ones included). Every shipped source knows
	// its job budget up front; the driver uses Len to size runaway guards.
	Len() int
}

// sliceSource adapts a pre-materialized arrival slice.
type sliceSource struct {
	arrivals []Arrival
	next     int
}

func (s *sliceSource) Next() (Arrival, bool) {
	if s.next >= len(s.arrivals) {
		return Arrival{}, false
	}
	a := s.arrivals[s.next]
	s.arrivals[s.next] = Arrival{} // drop the reference: streaming consumers own the job now
	s.next++
	return a, true
}

func (s *sliceSource) Len() int { return len(s.arrivals) }

// FromSlice wraps a static job set as a Source with every job arriving at
// t=0 under the anonymous tenant — the paper's batch submission expressed
// as a stream.
func FromSlice(jobs []*job.Job) Source {
	arrivals := make([]Arrival, len(jobs))
	for i, j := range jobs {
		arrivals[i] = Arrival{Job: j}
	}
	return &sliceSource{arrivals: arrivals}
}

// DiurnalConfig parameterizes the synthetic planet-scale arrival generator.
// The zero value (plus N and Seed) is a sensible single-tenant diurnal day.
type DiurnalConfig struct {
	// N is the total number of arrivals the source yields.
	N int
	// Seed makes the stream reproducible: equal configs yield bit-equal
	// streams.
	Seed int64

	// Day is the diurnal period (default 24 h of simulated time).
	Day units.Tick
	// Horizon is the span the N arrivals are spread over (default one Day).
	// The mean rate is N/Horizon; the actual process is Poisson, so the
	// last arrival lands near — not exactly at — the horizon.
	Horizon units.Tick
	// PeakFactor is the peak-to-trough ratio of the day-night rate curve
	// (default 4: midday arrives 4× as fast as midnight; 1 flattens the
	// curve to homogeneous Poisson). The curve is sinusoidal with its
	// trough at t=0.
	PeakFactor float64

	// BurstCount is the expected number of traffic bursts per Day (default
	// 0: no bursts). Burst windows open as a Poisson process.
	BurstCount float64
	// BurstFactor multiplies the arrival rate inside a burst window
	// (default 8 when BurstCount > 0).
	BurstFactor float64
	// BurstLen is each burst window's duration (default 2 minutes).
	BurstLen units.Tick

	// Tenants is the number of distinct submitting users (default 1: the
	// anonymous tenant, matching the paper's single-user experiments).
	Tenants int
	// TenantSkew is the Zipf exponent of the tenant popularity distribution
	// (default 1.1 when Tenants > 1): tenant k submits with weight
	// (k+1)^-skew, so a handful of heavy tenants dominate — the population
	// shape that makes fair-share matter. 0 with Tenants > 1 means uniform.
	TenantSkew float64

	// Jobs shapes the synthetic job bodies (resource distribution and
	// ranges); its N and Seed fields are ignored. The default MaxThreads is
	// 224 rather than the batch generator's 240, so every job fits the
	// smallest device generation of a heterogeneous pool (57 cores × 4).
	Jobs Config
	// MemQuantum rounds each job's declared memory up to a multiple
	// (default 128 MB). Coarse requests keep the negotiator's autocluster
	// signature space small — a million distinct byte counts would churn
	// the 4096-entry signature table every cycle; ~15 memory levels × ~55
	// thread levels stay comfortably inside it.
	MemQuantum units.MB
}

func (c DiurnalConfig) withDefaults() DiurnalConfig {
	if c.Day == 0 {
		c.Day = 24 * units.Hour
	}
	if c.Horizon == 0 {
		c.Horizon = c.Day
	}
	if c.PeakFactor == 0 {
		c.PeakFactor = 4
	}
	if c.PeakFactor < 1 {
		panic(fmt.Sprintf("workload: PeakFactor %g < 1", c.PeakFactor))
	}
	if c.BurstCount > 0 {
		if c.BurstFactor == 0 {
			c.BurstFactor = 8
		}
		if c.BurstLen == 0 {
			c.BurstLen = 2 * units.Minute
		}
		if c.BurstFactor < 1 {
			panic(fmt.Sprintf("workload: BurstFactor %g < 1", c.BurstFactor))
		}
	}
	if c.Tenants == 0 {
		c.Tenants = 1
	}
	if c.Tenants > 1 && c.TenantSkew == 0 {
		c.TenantSkew = 1.1
	}
	if c.Jobs.MaxThreads == 0 {
		c.Jobs.MaxThreads = 224
	}
	c.Jobs = c.Jobs.withDefaults()
	if c.MemQuantum == 0 {
		c.MemQuantum = 128
	}
	return c
}

// Diurnal is the synthetic planet-scale arrival source. Construct with
// NewDiurnal; resident state is O(Tenants), independent of N.
type Diurnal struct {
	cfg DiurnalConfig

	// Independent deterministic streams, so e.g. adding a burst draw does
	// not perturb job bodies.
	arrivalR *rng.Source // thinning candidate gaps and accept draws
	burstR   *rng.Source // burst window schedule
	tenantR  *rng.Source // tenant picks
	jobR     *rng.Source // job body synthesis

	yielded int
	clock   float64 // candidate arrival clock, in ticks
	rateMax float64 // thinning envelope: arrivals per tick, everything on

	// Diurnal curve: rate(t) = base · (1 + amp·sin(2πt/Day − π/2)).
	base, amp float64

	// Burst window state machine, advanced monotonically with the clock.
	burstGap  float64 // mean gap between window opens, in ticks
	nextBurst float64 // next window open (math.Inf(1) when bursts are off)
	burstEnd  float64 // current window close (0 when no window is open)

	// cumWeight is the tenant popularity CDF (len Tenants); names are the
	// interned tenant strings, built once so every arrival of a tenant
	// shares one string.
	cumWeight []float64
	names     []string
}

// NewDiurnal builds the generator. It panics on a non-positive N — an empty
// stream is almost always a mis-filled config.
func NewDiurnal(cfg DiurnalConfig) *Diurnal {
	cfg = cfg.withDefaults()
	if cfg.N <= 0 {
		panic(fmt.Sprintf("workload: DiurnalConfig.N = %d", cfg.N))
	}
	root := rng.New(cfg.Seed).Fork("diurnal")
	d := &Diurnal{
		cfg:      cfg,
		arrivalR: root.Fork("arrivals"),
		burstR:   root.Fork("bursts"),
		tenantR:  root.Fork("tenants"),
		jobR:     root.Fork("jobs-" + cfg.Jobs.Dist.String()),
	}
	// Mean rate N/Horizon; the sinusoid integrates to zero over whole days,
	// so base is the mean. PeakFactor p maps to amplitude (p−1)/(p+1):
	// peak base·(1+amp) over trough base·(1−amp) equals p.
	d.base = float64(cfg.N) / float64(cfg.Horizon)
	d.amp = (cfg.PeakFactor - 1) / (cfg.PeakFactor + 1)
	d.rateMax = d.base * (1 + d.amp)
	d.nextBurst = math.Inf(1)
	if cfg.BurstCount > 0 {
		d.rateMax *= cfg.BurstFactor
		d.burstGap = float64(cfg.Day) / cfg.BurstCount
		d.nextBurst = d.burstR.Exp(d.burstGap)
	}
	d.names = make([]string, cfg.Tenants)
	d.cumWeight = make([]float64, cfg.Tenants)
	sum := 0.0
	for k := 0; k < cfg.Tenants; k++ {
		if cfg.Tenants > 1 {
			d.names[k] = fmt.Sprintf("tenant%04d", k)
		}
		w := 1.0
		if cfg.TenantSkew > 0 {
			w = math.Pow(float64(k+1), -cfg.TenantSkew)
		}
		sum += w
		d.cumWeight[k] = sum
	}
	return d
}

// Len returns the configured arrival count N.
func (d *Diurnal) Len() int { return d.cfg.N }

// rate evaluates the arrival intensity at candidate time t, advancing the
// burst window machine. t only moves forward (the thinning clock is
// monotone), so the machine never rewinds.
func (d *Diurnal) rate(t float64) float64 {
	for t >= d.nextBurst {
		d.burstEnd = d.nextBurst + float64(d.cfg.BurstLen)
		d.nextBurst += d.burstR.Exp(d.burstGap)
	}
	r := d.base * (1 + d.amp*math.Sin(2*math.Pi*t/float64(d.cfg.Day)-math.Pi/2))
	if t < d.burstEnd {
		r *= d.cfg.BurstFactor
	}
	return r
}

// Next yields the next arrival by Lewis–Shedler thinning: candidate points
// arrive at the constant envelope rate and survive with probability
// rate(t)/rateMax, which realizes the nonhomogeneous process exactly.
func (d *Diurnal) Next() (Arrival, bool) {
	if d.yielded >= d.cfg.N {
		return Arrival{}, false
	}
	for {
		d.clock += d.arrivalR.Exp(1 / d.rateMax)
		if d.arrivalR.Float64()*d.rateMax >= d.rate(d.clock) {
			continue // thinned: candidate rejected
		}
		id := d.yielded
		d.yielded++
		tenant := 0
		if d.cfg.Tenants > 1 {
			tenant = pickCum(d.cumWeight, d.tenantR.Float64())
		}
		j := synthesize(id, fmt.Sprintf("diurnal-%s#%d", d.cfg.Jobs.Dist, id), d.cfg.Jobs, d.jobR)
		// Coarsen the declared memory request (see MemQuantum). Rounding
		// up keeps ActualPeakMem ≤ Mem and every admission guarantee.
		if q := d.cfg.MemQuantum; q > 1 {
			j.Mem = (j.Mem + q - 1) / q * q
		}
		return Arrival{Job: j, Tenant: d.names[tenant], At: units.Tick(d.clock)}, true
	}
}

// pickCum binary-searches a cumulative weight table: the smallest index k
// with u·total < cum[k].
func pickCum(cum []float64, u float64) int {
	x := u * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if x < cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// DeviceClass is one device generation inside a heterogeneous pool.
type DeviceClass struct {
	// Name tags the generation (informational).
	Name string
	// Device is the hardware model.
	Device phi.Config
	// Weight is the class's share of the node population.
	Weight float64
}

// DefaultDeviceClasses is a three-generation Xeon Phi mix modeled on the
// x100 product line: the paper's 5110P plus the larger 7120P and the
// smaller 3120A. Weights skew toward the mainstream part.
func DefaultDeviceClasses() []DeviceClass {
	return []DeviceClass{
		{Name: "5110P", Weight: 0.5,
			Device: phi.Config{Cores: 60, ThreadsPerCore: 4, Memory: units.GB(8), SpinContention: phi.DefaultSpinContention}},
		{Name: "7120P", Weight: 0.3,
			Device: phi.Config{Cores: 61, ThreadsPerCore: 4, Memory: units.GB(16), SpinContention: phi.DefaultSpinContention}},
		{Name: "3120A", Weight: 0.2,
			Device: phi.Config{Cores: 57, ThreadsPerCore: 4, Memory: units.GB(6), SpinContention: phi.DefaultSpinContention}},
	}
}

// HeterogeneousPool draws a per-node device assignment from the class mix —
// the input for cluster.Config.NodeDevices. Deterministic in the seed;
// every node's devices share its class (mixed-generation nodes were not a
// thing micinfo would have enjoyed reporting).
func HeterogeneousPool(seed int64, nodes int, classes []DeviceClass) []phi.Config {
	if len(classes) == 0 {
		classes = DefaultDeviceClasses()
	}
	weights := make([]float64, len(classes))
	for i, c := range classes {
		weights[i] = c.Weight
	}
	r := rng.New(seed).Fork("hetero-pool")
	out := make([]phi.Config, nodes)
	for n := range out {
		out[n] = classes[r.Pick(weights)].Device
	}
	return out
}
