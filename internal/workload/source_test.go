package workload

import (
	"testing"

	"phishare/internal/units"
)

func diurnalCfg(seed int64, n int) DiurnalConfig {
	return DiurnalConfig{N: n, Seed: seed, BurstCount: 3, Tenants: 10}
}

func TestDiurnalDeterministic(t *testing.T) {
	a := collect(NewDiurnal(diurnalCfg(11, 2000)))
	b := collect(NewDiurnal(diurnalCfg(11, 2000)))
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].At != b[i].At || a[i].Tenant != b[i].Tenant ||
			a[i].Job.Mem != b[i].Job.Mem || a[i].Job.Threads != b[i].Job.Threads ||
			a[i].Job.SequentialTime() != b[i].Job.SequentialTime() {
			t.Fatalf("streams diverge at arrival %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := collect(NewDiurnal(diurnalCfg(12, 2000)))
	same := 0
	for i := range a {
		if a[i].At == c[i].At {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical arrival times")
	}
}

func TestDiurnalStreamShape(t *testing.T) {
	src := NewDiurnal(diurnalCfg(21, 5000))
	if src.Len() != 5000 {
		t.Fatalf("Len = %d, want 5000", src.Len())
	}
	arrivals := collect(src)
	if len(arrivals) != 5000 {
		t.Fatalf("yielded %d arrivals, want exactly N", len(arrivals))
	}
	var prev units.Tick
	for i, a := range arrivals {
		if a.At < prev {
			t.Fatalf("arrival %d travels back in time: %v after %v", i, a.At, prev)
		}
		prev = a.At
		if err := a.Job.Validate(); err != nil {
			t.Fatalf("arrival %d invalid: %v", i, err)
		}
		if a.Job.ID != i {
			t.Fatalf("arrival %d has job ID %d", i, a.Job.ID)
		}
		if int(a.Job.Mem)%128 != 0 {
			t.Fatalf("arrival %d memory %v not quantized to 128 MB", i, a.Job.Mem)
		}
		if a.Job.Threads > 224 {
			t.Fatalf("arrival %d wants %v threads; diurnal jobs must fit a 3120A (224)",
				i, a.Job.Threads)
		}
		if a.Tenant == "" {
			t.Fatalf("arrival %d has no tenant in a 10-tenant config", i)
		}
	}
}

func TestDiurnalRateShape(t *testing.T) {
	// With the trough at t=0, burst-free midday (t in [Day/4, 3Day/4]) must
	// collect well over half the arrivals — the PeakFactor=4 sinusoid puts
	// ~68% of its mass there.
	arrivals := collect(NewDiurnal(DiurnalConfig{N: 20000, Seed: 31}))
	day := 24 * units.Hour
	mid := 0
	for _, a := range arrivals {
		if a.At >= day/4 && a.At < 3*day/4 {
			mid++
		}
	}
	if frac := float64(mid) / float64(len(arrivals)); frac < 0.6 {
		t.Errorf("midday half-day holds %.2f of arrivals, want > 0.6 (diurnal curve missing?)", frac)
	}
}

func TestDiurnalTenantSkew(t *testing.T) {
	arrivals := collect(NewDiurnal(diurnalCfg(41, 10000)))
	counts := map[string]int{}
	for _, a := range arrivals {
		counts[a.Tenant]++
	}
	if counts["tenant0000"] <= counts["tenant0009"] {
		t.Errorf("Zipf skew inverted: tenant0000=%d vs tenant0009=%d",
			counts["tenant0000"], counts["tenant0009"])
	}
	if counts["tenant0000"] < len(arrivals)/10 {
		t.Errorf("heaviest tenant holds %d of %d arrivals; Zipf-1.1 head should exceed uniform share",
			counts["tenant0000"], len(arrivals))
	}
}

// collect drains a source into a slice.
func collect(s Source) []Arrival {
	out := make([]Arrival, 0, s.Len())
	for {
		a, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

func TestFromSliceAndCollect(t *testing.T) {
	jobs := Generate(Config{Dist: Uniform, N: 50, Seed: 51})
	src := FromSlice(jobs)
	if src.Len() != 50 {
		t.Fatalf("Len = %d", src.Len())
	}
	arrivals := collect(src)
	for i, a := range arrivals {
		if a.Job != jobs[i] || a.At != 0 || a.Tenant != "" {
			t.Fatalf("arrival %d = %+v, want job %d at t=0, anonymous", i, a, i)
		}
	}
	if a, ok := src.Next(); ok {
		t.Fatalf("exhausted source yielded %+v", a)
	}
}

func TestHeterogeneousPool(t *testing.T) {
	a := HeterogeneousPool(61, 500, nil)
	b := HeterogeneousPool(61, 500, nil)
	classes := DefaultDeviceClasses()
	seen := map[int]int{}
	for n := range a {
		if a[n] != b[n] {
			t.Fatalf("pool draw not deterministic at node %d", n)
		}
		found := -1
		for k, c := range classes {
			if a[n] == c.Device {
				found = k
			}
		}
		if found < 0 {
			t.Fatalf("node %d device %+v matches no class", n, a[n])
		}
		seen[found]++
	}
	if len(seen) != len(classes) {
		t.Errorf("500-node pool uses %d of %d classes", len(seen), len(classes))
	}
	// The mainstream part (weight 0.5) must dominate the small one (0.2).
	if seen[0] <= seen[2] {
		t.Errorf("class mix ignores weights: %v", seen)
	}
}
