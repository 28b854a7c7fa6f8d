package sim

import "testing"

// TestFanoutCoversAllIndices pins Fanout's basic contract: every index runs
// exactly once, including the n <= 1 and worker-clamped shapes.
func TestFanoutCoversAllIndices(t *testing.T) {
	eng := New()
	for _, n := range []int{0, 1, 2, 16, 100} {
		hits := make([]int32, n)
		eng.Fanout(n, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, h)
			}
		}
	}
}

// TestFanoutPropagatesPanic pins failure delivery: a panic on any Fanout
// worker surfaces to the caller instead of being swallowed by the pool.
func TestFanoutPropagatesPanic(t *testing.T) {
	eng := New()
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate")
		}
	}()
	eng.Fanout(8, func(i int) {
		if i == 5 {
			panic("boom")
		}
	})
}
