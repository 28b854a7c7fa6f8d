package fixture

import "maps"

type sched struct {
	waiting map[int]string
}

// flaggedKill issues kills straight out of map iteration: the kill order
// — and with it every downstream recover/resubmit interleaving — changes
// run to run.
func (s *sched) flaggedKill(kill func(int)) {
	for id := range s.waiting {
		kill(id)
	}
}

// flaggedCollect appends in map order and never sorts, so the produced
// slice is a different permutation each run.
func flaggedCollect(byUser map[string]int) []string {
	var names []string
	for u := range byUser {
		names = append(names, u)
	}
	return names
}

// flaggedFirst returns an arbitrary element: a nondeterministic pick.
func flaggedFirst(pool map[string]int) string {
	for k := range pool {
		return k
	}
	return ""
}

// flaggedKeysIter ranges over maps.Keys, which visits the map in the same
// randomized order as a plain range.
func flaggedKeysIter(pool map[string]int, emit func(string)) {
	for k := range maps.Keys(pool) {
		emit(k)
	}
}

// flaggedValuesIter ranges over maps.Values.
func flaggedValuesIter(pool map[string]int, emit func(int)) {
	for v := range maps.Values(pool) {
		emit(v)
	}
}

// flaggedAllIter ranges over an explicitly instantiated maps.All.
func flaggedAllIter(pool map[string]int, emit func(string, int)) {
	for k, v := range maps.All[map[string]int](pool) {
		emit(k, v)
	}
}
