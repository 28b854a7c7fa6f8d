package knapsack

import (
	"math/rand"
	"reflect"
	"testing"

	"phishare/internal/units"
)

// randomInstance draws one knapsack instance covering the regimes the
// scheduler produces: sparse and dense queues, wide and narrow items,
// individually infeasible items, zero values, 1-D and 2-D configurations.
func randomInstance(r *rand.Rand) (Config, []Item) {
	cfg := Config{
		MemCapacity:    units.MB(1 + r.Intn(10000)),
		MemGranularity: units.MB(1 + r.Intn(100)),
	}
	if r.Intn(4) > 0 { // 2-D three quarters of the time
		cfg.ThreadCapacity = units.Threads(1 + r.Intn(300))
		cfg.ThreadGranularity = units.Threads(1 + r.Intn(8))
	}
	n := r.Intn(24)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			Mem:     units.MB(1 + r.Intn(4000)),
			Threads: units.Threads(r.Intn(320) - 4), // occasionally negative
			Value:   int64(r.Intn(2000)),            // includes zero
		}
		if r.Intn(10) == 0 {
			items[i].Value = 0
		}
	}
	return cfg, items
}

// TestSolverMatchesReference is the differential property test: on ~1k
// seeded random instances the optimized Solver must agree with the reference
// DP bit-for-bit — same value, same selected index set (which pins the
// deterministic tie-breaks), same aggregate memory and threads.
func TestSolverMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1337))
	s := NewSolver() // one solver across all instances: exercises buffer reuse
	for i := 0; i < 1200; i++ {
		cfg, items := randomInstance(r)
		want := SolveReference(cfg, items)
		got := s.Solve(cfg, items)
		if got.Value != want.Value || got.Mem != want.Mem || got.Threads != want.Threads ||
			!reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("instance %d (cfg %+v, %d items):\n solver    %+v\n reference %+v",
				i, cfg, len(items), got, want)
		}
	}
}

// TestSolverMatchesReferenceAdversarial targets the sparse frontier solver's
// hard regimes, where dominance pruning is least effective or ties are
// everywhere: duplicated items, near-equal values (maximal tie-breaking),
// large all-distinct random values (maximal frontier growth), and tight
// capacities where the budgets bind on both axes.
func TestSolverMatchesReferenceAdversarial(t *testing.T) {
	r := rand.New(rand.NewSource(99991))
	s := NewSolver()
	check := func(name string, cfg Config, items []Item) {
		t.Helper()
		want := SolveReference(cfg, items)
		got := s.Solve(cfg, items)
		if got.Value != want.Value || got.Mem != want.Mem || got.Threads != want.Threads ||
			!reflect.DeepEqual(got.Selected, want.Selected) {
			t.Fatalf("%s (cfg %+v, %d items):\n solver    %+v\n reference %+v",
				name, cfg, len(items), got, want)
		}
	}
	for round := 0; round < 60; round++ {
		cfg := Config{
			MemCapacity:       units.MB(200 + r.Intn(1800)),
			MemGranularity:    units.MB(25 + r.Intn(50)),
			ThreadCapacity:    units.Threads(8 + r.Intn(120)),
			ThreadGranularity: units.Threads(1 + r.Intn(4)),
		}
		// Duplicates: few distinct shapes repeated many times. Identical
		// items make every prefix value reachable many ways, so the
		// reconstruction's index-order tie-break does all the work.
		proto := make([]Item, 1+r.Intn(4))
		for i := range proto {
			proto[i] = Item{
				Mem:     units.MB(1 + r.Intn(800)),
				Threads: units.Threads(r.Intn(64)),
				Value:   int64(r.Intn(4)), // tiny range: constant ties, zeros
			}
		}
		var dup []Item
		for i := 0; i < 24; i++ {
			dup = append(dup, proto[r.Intn(len(proto))])
		}
		check("duplicates", cfg, dup)

		// Distinct large values: nothing dominates, the frontier grows as
		// large as the instance allows.
		distinct := make([]Item, 16+r.Intn(16))
		for i := range distinct {
			distinct[i] = Item{
				Mem:     units.MB(1 + r.Intn(600)),
				Threads: units.Threads(r.Intn(48)),
				Value:   int64(1+r.Intn(1<<30)) << uint(r.Intn(20)),
			}
		}
		check("distinct-values", cfg, distinct)

		// Tight budgets: every item is a large fraction of capacity, so both
		// axes bind and most subsets are infeasible.
		tight := make([]Item, 12)
		for i := range tight {
			tight[i] = Item{
				Mem:     cfg.MemCapacity/2 + units.MB(r.Intn(int(cfg.MemCapacity))),
				Threads: cfg.ThreadCapacity/2 + units.Threads(r.Intn(int(cfg.ThreadCapacity))),
				Value:   int64(1 + r.Intn(100)),
			}
		}
		check("tight-budgets", cfg, tight)

		// 1-D versions of the same regimes.
		cfg1 := Config{MemCapacity: cfg.MemCapacity, MemGranularity: cfg.MemGranularity}
		check("duplicates-1d", cfg1, dup)
		check("distinct-values-1d", cfg1, distinct)
	}
}

// TestSolverSelectionFeasible checks the solution invariants the scheduler
// relies on: selections are ascending, within capacity, and deduplicated.
func TestSolverSelectionFeasible(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	s := NewSolver()
	for i := 0; i < 400; i++ {
		cfg, items := randomInstance(r)
		res := s.Solve(cfg, items)
		d := cfg.withDefaults()
		var mem units.MB
		var th units.Threads
		seen := map[int]bool{}
		prev := -1
		for _, idx := range res.Selected {
			if idx <= prev {
				t.Fatalf("instance %d: selection not ascending: %v", i, res.Selected)
			}
			prev = idx
			if seen[idx] {
				t.Fatalf("instance %d: duplicate index %d", i, idx)
			}
			seen[idx] = true
			mem += units.MB(ceilDiv(int(items[idx].Mem), int(d.MemGranularity))) * d.MemGranularity
			if items[idx].Threads > 0 {
				th += items[idx].Threads
			}
		}
		if mem > 0 && units.MB(ceilDiv(int(mem), int(d.MemGranularity)))*d.MemGranularity >
			(d.MemCapacity/d.MemGranularity)*d.MemGranularity {
			t.Fatalf("instance %d: rounded memory %v exceeds capacity %v", i, mem, d.MemCapacity)
		}
	}
}

// TestSolverAllFitsFastPath pins the fast path explicitly: a small queue on
// a big device selects exactly the positive-value feasible items.
func TestSolverAllFitsFastPath(t *testing.T) {
	cfg := Config{MemCapacity: 8192, ThreadCapacity: 240}
	items := []Item{
		{Mem: 100, Threads: 16, Value: 10},
		{Mem: 200, Threads: 8, Value: 0},    // zero value: never taken
		{Mem: 9000, Threads: 16, Value: 99}, // infeasible memory
		{Mem: 300, Threads: 400, Value: 42}, // infeasible threads
		{Mem: 150, Threads: 4, Value: 7},
	}
	got := NewSolver().Solve(cfg, items)
	want := SolveReference(cfg, items)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast path diverged: %+v vs %+v", got, want)
	}
	if len(got.Selected) != 2 || got.Selected[0] != 0 || got.Selected[1] != 4 {
		t.Fatalf("fast path selection %v, want [0 4]", got.Selected)
	}
}

// TestSolverReuseDoesNotLeakState runs a big instance then a tiny one and
// back: stale buffer contents must never influence a later solve.
func TestSolverReuseDoesNotLeakState(t *testing.T) {
	s := NewSolver()
	big := make([]Item, 64)
	for i := range big {
		big[i] = Item{Mem: units.MB(200 + 37*i), Threads: units.Threads(4 * i), Value: int64(50 + i)}
	}
	cfgBig := Config{MemCapacity: 8192, ThreadCapacity: 240}
	cfgTiny := Config{MemCapacity: 600, ThreadCapacity: 16}
	tiny := []Item{{Mem: 500, Threads: 8, Value: 3}, {Mem: 400, Threads: 8, Value: 2}}
	for round := 0; round < 3; round++ {
		if got, want := s.Solve(cfgBig, big), SolveReference(cfgBig, big); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d big: %+v vs %+v", round, got, want)
		}
		if got, want := s.Solve(cfgTiny, tiny), SolveReference(cfgTiny, tiny); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d tiny: %+v vs %+v", round, got, want)
		}
	}
}
