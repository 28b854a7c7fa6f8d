package fixture

import (
	"cmp"
	"slices"
	"sort"
)

type rjob struct {
	value int64
	id    int
}

// cleanChained carries its tiebreak inside a single chained expression.
func cleanChained(jobs []rjob) {
	sort.Slice(jobs, func(i, j int) bool {
		return jobs[i].value > jobs[j].value ||
			(jobs[i].value == jobs[j].value && jobs[i].id < jobs[j].id)
	})
}

// cleanIfChain is the idiomatic multi-key comparator: compare the key,
// fall through to a total-order tiebreak.
func cleanIfChain(jobs []rjob) {
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].value != jobs[j].value {
			return jobs[i].value > jobs[j].value
		}
		return jobs[i].id < jobs[j].id
	})
}

// cleanWholeElement compares the elements themselves; equal elements are
// interchangeable, so instability cannot show.
func cleanWholeElement(xs []int) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// cleanStable is already stable; ties keep insertion order.
func cleanStable(jobs []rjob) {
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].value > jobs[j].value })
}

// cleanSortFuncOr chains the key and a total-order tiebreak with cmp.Or.
func cleanSortFuncOr(jobs []rjob) {
	slices.SortFunc(jobs, func(a, b rjob) int {
		return cmp.Or(cmp.Compare(b.value, a.value), cmp.Compare(a.id, b.id))
	})
}

// cleanSortFuncIfChain is the multi-key fall-through shape.
func cleanSortFuncIfChain(jobs []rjob) {
	slices.SortFunc(jobs, func(a, b rjob) int {
		if c := cmp.Compare(b.value, a.value); c != 0 {
			return c
		}
		return a.id - b.id
	})
}

// cleanSortFuncWholeElement compares the elements themselves.
func cleanSortFuncWholeElement(xs []int) {
	slices.SortFunc(xs, func(a, b int) int { return cmp.Compare(a, b) })
}

// cleanSortStableFunc is stable; ties keep insertion order.
func cleanSortStableFunc(jobs []rjob) {
	slices.SortStableFunc(jobs, func(a, b rjob) int { return cmp.Compare(a.value, b.value) })
}
