package fixture

import (
	"cmp"
	"slices"
	"sort"
)

type qjob struct {
	value   int64
	arrival int64
}

// flaggedSingleKey sorts by one key with unstable sort.Slice: jobs with
// equal value land in pivot-dependent order.
func flaggedSingleKey(jobs []qjob) {
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].value > jobs[j].value })
}

// flaggedOpaque passes a named comparator the analyzer cannot see into.
func flaggedOpaque(jobs []qjob, less func(i, j int) bool) {
	sort.Slice(jobs, less)
}

// flaggedComplex hides the comparison behind a helper call.
func flaggedComplex(jobs []qjob) {
	sort.Slice(jobs, func(i, j int) bool { return rank(jobs[i]) < rank(jobs[j]) })
}

func rank(q qjob) int64 { return q.value*2 + q.arrival }

type pjob struct {
	prio, id int
}

// flaggedSortFuncSub sorts by one key with unstable slices.SortFunc; the
// subtraction is a three-way comparison of that key alone.
func flaggedSortFuncSub(jobs []pjob) {
	slices.SortFunc(jobs, func(a, b pjob) int { return a.prio - b.prio })
}

// flaggedSortFuncCompare is the same single key through cmp.Compare.
func flaggedSortFuncCompare(jobs []qjob) {
	slices.SortFunc(jobs, func(a, b qjob) int { return cmp.Compare(a.arrival, b.arrival) })
}

// flaggedSortFuncOpaque passes a named comparator.
func flaggedSortFuncOpaque(jobs []qjob, order func(a, b qjob) int) {
	slices.SortFunc(jobs, order)
}
