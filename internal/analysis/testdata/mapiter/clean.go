package fixture

import (
	"maps"
	"slices"
	"sort"
)

type tally struct {
	counts map[string]int
}

// cleanSum is pure commutative accumulation; order cannot show.
func (t *tally) cleanSum() int {
	total := 0
	for _, n := range t.counts {
		total += n
	}
	return total
}

// cleanPurge deletes dead entries from the ranged map and sums the rest —
// the DeclaredFree shape.
func (t *tally) cleanPurge(dead func(string) bool) int {
	total := 0
	for k, n := range t.counts {
		if dead(k) {
			delete(t.counts, k)
			continue
		}
		total += n
	}
	return total
}

// cleanCollectSort collects the keys and sorts them before anything
// consumes the slice.
func (t *tally) cleanCollectSort() []string {
	keys := make([]string, 0, len(t.counts))
	for k := range t.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cleanKeyedWrite writes each iteration to a slot named by the loop key;
// every order lands the same final state.
func cleanKeyedWrite(in map[string]int, out map[string]int) {
	for k, v := range in {
		out[k] = v * 2
	}
}

// cleanValuesSum accumulates over maps.Values: the iterator keeps the
// order-insensitive exemption.
func (t *tally) cleanValuesSum() int {
	total := 0
	for n := range maps.Values(t.counts) {
		total += n
	}
	return total
}

// cleanKeysSorted collects maps.Keys and sorts before use.
func (t *tally) cleanKeysSorted() []string {
	var names []string
	for k := range maps.Keys(t.counts) {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// cleanSortedKeys ranges over a sorted slice of the keys, not the map.
func (t *tally) cleanSortedKeys(emit func(string)) {
	for _, k := range slices.Sorted(maps.Keys(t.counts)) {
		emit(k)
	}
}
