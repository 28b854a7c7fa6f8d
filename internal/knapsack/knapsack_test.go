package knapsack

import (
	"math/rand"
	"testing"
	"testing/quick"

	"phishare/internal/units"
)

func TestEq1Value(t *testing.T) {
	cases := []struct {
		threads units.Threads
		want    int64
	}{
		{0, 1000},
		{60, 938},  // 1 - (60/240)^2 = 0.9375
		{120, 750}, // 1 - 0.25
		{180, 438}, // 1 - 0.5625
		{240, 0},
		{300, 0},    // clamps above T
		{-10, 1000}, // clamps below 0
	}
	for _, c := range cases {
		if got := Eq1Value(c.threads, 240); got != c.want {
			t.Errorf("Eq1Value(%d, 240) = %d, want %d", c.threads, got, c.want)
		}
	}
}

func TestEq1ValueMonotone(t *testing.T) {
	prev := Eq1Value(0, 240)
	for th := units.Threads(1); th <= 240; th++ {
		v := Eq1Value(th, 240)
		if v > prev {
			t.Fatalf("Eq1Value not non-increasing at %d: %d > %d", th, v, prev)
		}
		prev = v
	}
}

func TestEq1ValuePanicsOnZeroT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Eq1Value with T=0 did not panic")
		}
	}()
	Eq1Value(60, 0)
}

// solve solves one instance on a fresh Solver.
func solve(cfg Config, items []Item) Result { return NewSolver().Solve(cfg, items) }

func TestSolveEmpty(t *testing.T) {
	res := solve(Config{MemCapacity: 8192}, nil)
	if len(res.Selected) != 0 || res.Value != 0 {
		t.Errorf("empty solve = %+v", res)
	}
}

func TestSolveZeroCapacity(t *testing.T) {
	res := solve(Config{MemCapacity: 0}, []Item{{Mem: 100, Value: 5}})
	if len(res.Selected) != 0 {
		t.Errorf("zero-capacity solve selected %v", res.Selected)
	}
}

func TestSolveSingleItemFits(t *testing.T) {
	res := solve(Config{MemCapacity: 500}, []Item{{Mem: 300, Threads: 60, Value: 7}})
	if len(res.Selected) != 1 || res.Selected[0] != 0 {
		t.Fatalf("selected %v, want [0]", res.Selected)
	}
	if res.Value != 7 || res.Mem != 300 || res.Threads != 60 {
		t.Errorf("result %+v", res)
	}
}

func TestSolveSingleItemTooBig(t *testing.T) {
	res := solve(Config{MemCapacity: 200}, []Item{{Mem: 300, Value: 7}})
	if len(res.Selected) != 0 {
		t.Errorf("oversized item selected: %v", res.Selected)
	}
}

func TestSolvePrefersHigherValue(t *testing.T) {
	// Capacity for only one of the two.
	items := []Item{
		{Mem: 600, Value: 3},
		{Mem: 600, Value: 9},
	}
	res := solve(Config{MemCapacity: 1000}, items)
	if len(res.Selected) != 1 || res.Selected[0] != 1 {
		t.Errorf("selected %v, want [1]", res.Selected)
	}
}

func TestSolvePicksComboOverSingle(t *testing.T) {
	items := []Item{
		{Mem: 1000, Value: 10},
		{Mem: 500, Value: 6},
		{Mem: 500, Value: 6},
	}
	res := solve(Config{MemCapacity: 1000}, items)
	if res.Value != 12 || len(res.Selected) != 2 {
		t.Errorf("result %+v, want the two small items (value 12)", res)
	}
}

func TestMemGranularityRoundsWeightsUp(t *testing.T) {
	// Two 260 MB items round to 300 MB each at 50 MB granularity, so only
	// one fits in 550 MB even though 2*260 = 520 <= 550.
	items := []Item{{Mem: 260, Value: 1}, {Mem: 260, Value: 1}}
	res := solve(Config{MemCapacity: 550, MemGranularity: 50}, items)
	if len(res.Selected) != 1 {
		t.Errorf("selected %d items, want 1 (conservative rounding)", len(res.Selected))
	}
}

func TestThreadCapacityEnforced(t *testing.T) {
	// Three 120-thread jobs, plenty of memory: only two fit 240 threads.
	items := []Item{
		{Mem: 100, Threads: 120, Value: 5},
		{Mem: 100, Threads: 120, Value: 5},
		{Mem: 100, Threads: 120, Value: 5},
	}
	res := solve(Config{MemCapacity: 8192, ThreadCapacity: 240}, items)
	if len(res.Selected) != 2 {
		t.Errorf("selected %d items, want 2 under 240-thread cap", len(res.Selected))
	}
	if res.Threads != 240 {
		t.Errorf("total threads %d, want 240", res.Threads)
	}
}

func TestThreadCapacityZeroMeans1D(t *testing.T) {
	items := []Item{
		{Mem: 100, Threads: 240, Value: 1},
		{Mem: 100, Threads: 240, Value: 1},
	}
	res := solve(Config{MemCapacity: 8192}, items)
	if len(res.Selected) != 2 {
		t.Errorf("1-D solve selected %d, want both items regardless of threads", len(res.Selected))
	}
}

func TestSolve2DPrefersManySmallJobs(t *testing.T) {
	// The Eq.1-valued mix from the paper: low-thread jobs should win.
	mk := func(mem units.MB, th units.Threads) Item {
		return Item{Mem: mem, Threads: th, Value: Eq1Value(th, 240)*CountBonusScale(8) + 1}
	}
	items := []Item{
		mk(2000, 240), // big CFD job
		mk(500, 60),   // K-means-like
		mk(500, 60),
		mk(600, 120),
		mk(700, 180),
	}
	res := solve(Config{MemCapacity: 4096, ThreadCapacity: 240}, items)
	// Best concurrency: the two 60-thread jobs plus the 120-thread job
	// (threads 240, huge value); the 240-thread job should never appear.
	for _, idx := range res.Selected {
		if idx == 0 {
			t.Errorf("240-thread job selected alongside others: %v", res.Selected)
		}
	}
	if len(res.Selected) < 3 {
		t.Errorf("selected %v, want at least the three low-thread jobs", res.Selected)
	}
}

func TestCountBonusBreaksTies(t *testing.T) {
	// Same total Eq.1 value: one 120-thread job (750) vs unattainable —
	// instead compare two sets of equal value where one has more items.
	scale := CountBonusScale(4)
	items := []Item{
		{Mem: 1000, Threads: 0, Value: 1000*scale + 1}, // one job of value 1000
		{Mem: 500, Threads: 0, Value: 500*scale + 1},   // two jobs of value 500 each
		{Mem: 500, Threads: 0, Value: 500*scale + 1},
	}
	res := solve(Config{MemCapacity: 1000}, items)
	if len(res.Selected) != 2 {
		t.Errorf("selected %v, want the two-item set on count tie-break", res.Selected)
	}
}

func TestSelectedAscending(t *testing.T) {
	items := []Item{
		{Mem: 100, Value: 1}, {Mem: 100, Value: 1}, {Mem: 100, Value: 1},
	}
	res := solve(Config{MemCapacity: 8192}, items)
	for i := 1; i < len(res.Selected); i++ {
		if res.Selected[i] <= res.Selected[i-1] {
			t.Fatalf("Selected not ascending: %v", res.Selected)
		}
	}
}

func TestPanicsOnNegativeValue(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative value did not panic")
		}
	}()
	solve(Config{MemCapacity: 100}, []Item{{Mem: 50, Value: -1}})
}

func TestPanicsOnZeroMem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-memory item did not panic")
		}
	}()
	solve(Config{MemCapacity: 100}, []Item{{Mem: 0, Value: 1}})
}

// bruteForce enumerates all subsets (n <= ~16) under the same rounded-weight
// model as the DP and returns the best achievable value.
func bruteForce(cfg Config, items []Item) int64 {
	cfg = cfg.withDefaults()
	W := int(cfg.MemCapacity / cfg.MemGranularity)
	T := 1 << 62
	if cfg.ThreadCapacity > 0 {
		T = int(cfg.ThreadCapacity / cfg.ThreadGranularity)
	}
	var best int64
	n := len(items)
	for mask := 0; mask < 1<<n; mask++ {
		var v int64
		w, th := 0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += items[i].Value
				w += ceilDiv(int(items[i].Mem), int(cfg.MemGranularity))
				th += ceilDiv(int(items[i].Threads), int(cfg.ThreadGranularity))
			}
		}
		if w <= W && th <= T && v > best {
			best = v
		}
	}
	return best
}

func TestSolveMatchesBruteForce1D(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(10)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Mem:   units.MB(50 + r.Intn(2000)),
				Value: int64(r.Intn(1000)),
			}
		}
		cfg := Config{MemCapacity: units.MB(500 + r.Intn(6000))}
		got := solve(cfg, items)
		want := bruteForce(cfg, items)
		if got.Value != want {
			t.Fatalf("trial %d: Solve value %d != brute force %d (cfg %+v items %+v)",
				trial, got.Value, want, cfg, items)
		}
	}
}

func TestSolveMatchesBruteForce2D(t *testing.T) {
	r := rand.New(rand.NewSource(100))
	for trial := 0; trial < 150; trial++ {
		n := 1 + r.Intn(9)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Mem:     units.MB(50 + r.Intn(2000)),
				Threads: units.Threads(4 * (1 + r.Intn(60))),
				Value:   int64(r.Intn(1000)),
			}
		}
		cfg := Config{
			MemCapacity:    units.MB(500 + r.Intn(6000)),
			ThreadCapacity: 240,
		}
		got := solve(cfg, items)
		want := bruteForce(cfg, items)
		if got.Value != want {
			t.Fatalf("trial %d: Solve value %d != brute force %d (cfg %+v items %+v)",
				trial, got.Value, want, cfg, items)
		}
	}
}

// TestSolutionFeasibility is a property test: whatever the inputs, the
// selected set respects both capacities and the reported totals.
func TestSolutionFeasibility(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{
				Mem:     units.MB(1 + r.Intn(4000)),
				Threads: units.Threads(r.Intn(241)),
				Value:   int64(r.Intn(100000)),
			}
		}
		cfg := Config{
			MemCapacity:    units.MB(1 + r.Intn(8192)),
			ThreadCapacity: units.Threads(r.Intn(300)),
		}
		res := solve(cfg, items)
		var mem units.MB
		var th units.Threads
		var val int64
		for _, idx := range res.Selected {
			mem += items[idx].Mem
			th += items[idx].Threads
			val += items[idx].Value
		}
		if mem != res.Mem || th != res.Threads || val != res.Value {
			return false
		}
		if mem > cfg.MemCapacity {
			return false
		}
		// Thread feasibility at granularity resolution.
		if cfg.ThreadCapacity > 0 && th > cfg.ThreadCapacity {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLargeInstanceRuns(t *testing.T) {
	// 1000 jobs on a full device: must complete quickly (near-linear in n,
	// per the paper's complexity argument).
	items := make([]Item, 1000)
	r := rand.New(rand.NewSource(7))
	for i := range items {
		th := units.Threads(60 * (1 + r.Intn(4)))
		items[i] = Item{
			Mem:     units.MB(300 + r.Intn(3100)),
			Threads: th,
			Value:   Eq1Value(th, 240)*CountBonusScale(1000) + 1,
		}
	}
	res := solve(Config{MemCapacity: 8192, ThreadCapacity: 240}, items)
	if len(res.Selected) == 0 {
		t.Error("large instance selected nothing")
	}
	if res.Mem > 8192 || res.Threads > 240 {
		t.Errorf("infeasible large solution: %+v", res)
	}
}
