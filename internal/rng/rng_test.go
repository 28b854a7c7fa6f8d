package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed sources diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different seeds matched %d/100 draws", same)
	}
}

func TestForkIndependence(t *testing.T) {
	// Forks with different names from identically-seeded parents must differ;
	// forks with the same name must agree.
	p1, p2 := New(7), New(7)
	a := p1.Fork("workload")
	b := p2.Fork("workload")
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-name forks diverged at draw %d", i)
		}
	}
	p3, p4 := New(7), New(7)
	c := p3.Fork("workload")
	d := p4.Fork("scheduler")
	same := 0
	for i := 0; i < 100; i++ {
		if c.Float64() == d.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different-name forks matched %d/100 draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestUniformIntRange(t *testing.T) {
	s := New(4)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.UniformInt(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("UniformInt(3,6) = %d out of range", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("UniformInt never produced %d in 1000 draws", v)
		}
	}
}

func TestUniformIntSingleton(t *testing.T) {
	s := New(5)
	if v := s.UniformInt(9, 9); v != 9 {
		t.Errorf("UniformInt(9,9) = %d, want 9", v)
	}
}

func TestUniformIntPanicsOnEmptyRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UniformInt(5,4) did not panic")
		}
	}()
	New(1).UniformInt(5, 4)
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(6)
	for i := 0; i < 5000; i++ {
		v := s.TruncNormal(0.5, 0.2, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("TruncNormal out of bounds: %v", v)
		}
	}
}

func TestTruncNormalMean(t *testing.T) {
	s := New(7)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		sum += s.TruncNormal(0.5, 0.15, 0, 1)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("TruncNormal mean = %v, want ~0.5", mean)
	}
}

func TestTruncNormalSkewShiftsMass(t *testing.T) {
	// The low-skew distribution (mean shifted one stddev down) must put
	// more mass in the lower half than the symmetric one.
	s := New(8)
	lowBelow, normBelow := 0, 0
	n := 10000
	for i := 0; i < n; i++ {
		if s.TruncNormal(0.35, 0.15, 0, 1) < 0.5 {
			lowBelow++
		}
		if s.TruncNormal(0.5, 0.15, 0, 1) < 0.5 {
			normBelow++
		}
	}
	if lowBelow <= normBelow {
		t.Errorf("low-skew mass below 0.5 (%d) not greater than normal (%d)", lowBelow, normBelow)
	}
}

func TestTruncNormalDegenerateStddev(t *testing.T) {
	s := New(9)
	if v := s.TruncNormal(0.7, 0, 0, 1); v != 0.7 {
		t.Errorf("TruncNormal with stddev 0 = %v, want 0.7", v)
	}
	if v := s.TruncNormal(5, 0, 0, 1); v != 1 {
		t.Errorf("TruncNormal clamps out-of-range mean: got %v, want 1", v)
	}
}

func TestTruncNormalFarMeanClamps(t *testing.T) {
	s := New(10)
	v := s.TruncNormal(100, 0.001, 0, 1)
	if v != 1 {
		t.Errorf("TruncNormal with unreachable mean = %v, want clamp to 1", v)
	}
}

func TestExpPositiveWithMean(t *testing.T) {
	s := New(11)
	sum := 0.0
	n := 20000
	for i := 0; i < n; i++ {
		v := s.Exp(2.0)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-2.0) > 0.1 {
		t.Errorf("Exp mean = %v, want ~2.0", mean)
	}
}

func TestPickRespectsWeights(t *testing.T) {
	s := New(13)
	counts := [3]int{}
	n := 30000
	for i := 0; i < n; i++ {
		counts[s.Pick([]float64{1, 2, 1})]++
	}
	// Expect roughly 25% / 50% / 25%.
	if f := float64(counts[1]) / float64(n); math.Abs(f-0.5) > 0.02 {
		t.Errorf("Pick middle weight frequency = %v, want ~0.5", f)
	}
}

func TestPickZeroWeightNeverChosen(t *testing.T) {
	s := New(14)
	for i := 0; i < 1000; i++ {
		if s.Pick([]float64{1, 0, 1}) == 1 {
			t.Fatal("Pick chose zero-weight bucket")
		}
	}
}

func TestPickPanicsOnAllZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pick with zero weights did not panic")
		}
	}()
	New(1).Pick([]float64{0, 0})
}

func TestPickPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pick with negative weight did not panic")
		}
	}()
	New(1).Pick([]float64{1, -1})
}
