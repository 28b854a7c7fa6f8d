package knapsack

import (
	"reflect"
	"testing"

	"phishare/internal/units"
)

// fuzzBytes hands out a fuzz input one field at a time, zeros once it runs
// out, so every input decodes to some instance.
type fuzzBytes []byte

func (b *fuzzBytes) u8() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

func (b *fuzzBytes) u16() int { return b.u8()<<8 | b.u8() }

// decodeInstance turns fuzz bytes into a valid instance (Mem > 0, Value ≥ 0)
// in the regimes randomInstance covers: 1-D and 2-D, default and explicit
// granularities, negative and oversized thread requests, zero values.
// Granularities start at 25 MB so the dense reference DP stays at most
// 400 × 300 cells and an input runs in well under a millisecond.
func decodeInstance(data []byte) (Config, []Item) {
	b := fuzzBytes(data)
	flags := b.u8()
	cfg := Config{MemCapacity: units.MB(b.u16() % 10001)}
	if g := b.u8() % 101; g > 0 {
		cfg.MemGranularity = units.MB(g + 24)
	}
	if flags&1 != 0 {
		cfg.ThreadCapacity = units.Threads(1 + b.u16()%300)
		cfg.ThreadGranularity = units.Threads(b.u8() % 9)
	}
	items := make([]Item, b.u8()%17)
	for i := range items {
		items[i] = Item{
			Mem:     units.MB(1 + b.u16()%4000),
			Threads: units.Threads(b.u16()%325 - 4),
			Value:   int64(b.u16() % 2000),
		}
	}
	return cfg, items
}

// FuzzSolverMatchesReference differential-fuzzes the sparse Solver against
// the dense reference DP: on every decoded instance the Result must be
// identical, selection order and tie-breaks included. One Solver serves
// every input, as one serves a whole planning round, so state leaking
// between calls through its reused buffers shows too.
func FuzzSolverMatchesReference(f *testing.F) {
	s := NewSolver()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, items := decodeInstance(data)
		want := SolveReference(cfg, items)
		if got := s.Solve(cfg, items); !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v, items %+v:\n solver    %+v\n reference %+v", cfg, items, got, want)
		}
	})
}
