// Package knapsack implements the 0-1 knapsack solvers at the heart of the
// sharing-aware scheduler (paper §IV-C).
//
// Each Xeon Phi coprocessor is modeled as a knapsack whose capacity is the
// device's (free) physical memory; the items are pending jobs weighted by
// their declared memory requirement. The value of a job decreases with its
// thread request (Eq. 1: v = 1 - (t/240)^2) so that maximizing knapsack value
// packs many low-thread jobs together, maximizing concurrency.
//
// Two dynamic programs are provided, selected by Config:
//
//   - a classic 1-D dynamic program over memory, as described in the paper's
//     complexity analysis (O(n·w) with w = capacity/granularity, e.g.
//     8 GB / 50 MB = 164 memory units);
//   - a 2-D dynamic program over (memory, threads) that additionally bounds
//     the total thread request of the selected set. The paper expresses the
//     thread bound by zeroing the value of oversubscribed sets; bounding the
//     DP state is the standard equivalent formulation and avoids enumerating
//     sets at all.
//
// The production entry point is Solver, which reuses its DP buffers across
// calls so that a scheduler solving thousands of knapsacks per run does not
// allocate per solve. SolveReference is the original per-call-allocating
// implementation, kept verbatim as the correctness oracle: Solver must
// produce bit-for-bit identical results (see TestSolverMatchesReference),
// because any divergence would change simulated scheduling outcomes.
//
// Values are non-negative scaled integers. Callers that want the paper's
// "as many jobs as possible" tie-break add a small per-item bonus via
// CountBonus so that among equal-value sets the larger one wins.
package knapsack

import (
	"fmt"
	"sort"

	"phishare/internal/units"
)

// Item is one candidate job for a knapsack.
type Item struct {
	Mem     units.MB      // declared coprocessor memory requirement (weight)
	Threads units.Threads // declared thread requirement
	Value   int64         // non-negative scaled value
}

// Config describes one knapsack instance.
type Config struct {
	// MemCapacity is the knapsack capacity: the device memory (or the freed
	// portion of it, for the incremental knapsacks of Fig. 4).
	MemCapacity units.MB
	// MemGranularity is the memory quantum of the DP. The paper uses 50 MB.
	// Item weights are rounded *up* to the granularity, so a solution is
	// always feasible at byte resolution. Defaults to 50 MB if zero.
	MemGranularity units.MB
	// ThreadCapacity bounds the total threads of the selected set. Zero (or
	// negative) disables the thread dimension and yields the 1-D solver.
	ThreadCapacity units.Threads
	// ThreadGranularity is the thread quantum of the 2-D DP. Item thread
	// requests are rounded up, the capacity is rounded down, keeping
	// solutions conservative. Defaults to 4 (one Xeon Phi core's worth).
	ThreadGranularity units.Threads
}

func (c Config) withDefaults() Config {
	if c.MemGranularity <= 0 {
		c.MemGranularity = 50
	}
	if c.ThreadGranularity <= 0 {
		c.ThreadGranularity = 4
	}
	return c
}

// Result is a solved knapsack.
type Result struct {
	Selected []int         // indices into the item slice, ascending
	Value    int64         // total value of the selected set
	Mem      units.MB      // total declared memory of the selected set
	Threads  units.Threads // total declared threads of the selected set
}

// Eq1Scale is the integer scale applied to the paper's Eq. 1 value, which
// lies in [0, 1]. With scale 1000, value resolution is 0.001.
const Eq1Scale = 1000

// Eq1Value computes the paper's Eq. 1 job value, scaled to an integer:
//
//	v = round((1 - (t/T)^2) · Eq1Scale)
//
// T is the device hardware thread count (240 for the Xeon Phi 5110P).
// Requests above T (which COSMIC would refuse to run concurrently with
// anything) clamp to value 0; non-positive T panics.
func Eq1Value(t, T units.Threads) int64 {
	if T <= 0 {
		panic(fmt.Sprintf("knapsack: non-positive hardware thread count %d", T))
	}
	if t < 0 {
		t = 0
	}
	if t > T {
		t = T
	}
	frac := float64(t) / float64(T)
	return int64((1-frac*frac)*Eq1Scale + 0.5)
}

// CountBonus returns the per-item bonus that implements the paper's
// "pack as many jobs as possible" objective as a tie-break under the Eq. 1
// value: each item is worth an extra 1 while true value differences are
// scaled by maxItems+1, so a 0.001 difference in total Eq. 1 value always
// dominates any difference in set size.
//
// Callers combine: item.Value = Eq1Value(t, T)*CountBonusScale(maxItems) + 1.
func CountBonusScale(maxItems int) int64 {
	return int64(maxItems) + 1
}

// ceilDiv returns ceil(a/b) for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// validate rejects malformed items. Items with negative Value or
// non-positive Mem panic: a zero-memory job would let the DP pack infinitely
// many copies of nothing, which is always a caller bug in this system (every
// real offload job reserves device memory).
func validate(items []Item) {
	for i, it := range items {
		if it.Value < 0 {
			panic(fmt.Sprintf("knapsack: item %d has negative value %d", i, it.Value))
		}
		if it.Mem <= 0 {
			panic(fmt.Sprintf("knapsack: item %d has non-positive memory %v", i, it.Mem))
		}
	}
}

// Solver owns grow-only buffers that are reused across calls, so a planning
// round of many knapsacks allocates only its Result slices. A Solver is not
// safe for concurrent use; each simulation (goroutine) holds its own.
//
// The Solver is bit-for-bit equivalent to SolveReference: same Value, same
// Selected indices, same tie-breaks. Instead of the reference's dense
// (memory × threads) value matrix it maintains the sparse set of
// Pareto-optimal DP states — the reachable (mem, threads) footprints that
// are not dominated by a cheaper-or-equal footprint of at-least-equal value.
// Every decision the reference makes is a strict `>` comparison between two
// corner values dp(a, b) = max{value : footprint ≤ (a, b)}, and a corner
// query is answered exactly by the frontier, so the sparse solver reproduces
// the reference's selections and tie-breaks identically (see
// TestSolverMatchesReference). On scheduler workloads the frontier stays
// tiny — Eq. 1 values are near-uniform, so almost every state is dominated —
// turning the O(n·W·T) dense sweep into a few hundred state merges.
//
// Two outcome-preserving shortcuts ride on top:
//
//   - if every feasible item fits together, the DP is skipped outright and
//     the positive-value items are selected directly (the common tail-of-run
//     case: a near-empty queue against a near-empty device);
//   - zero-value items are skipped (a strict `>` improvement test can never
//     take them; the reference leaves their take rows false too).
type Solver struct {
	cur      []state // current Pareto frontier, sorted by (mem, threads)
	shift    []state // scratch: frontier shifted by the item being merged
	merged   []state // scratch: cur ∪ shift before dominance pruning
	stair    []state // scratch: (threads, value) staircase for pruning
	hist     []state // concatenated pre-item frontier snapshots
	histOff  []int   // 2 ints per item: snapshot offset/len (-1 len: skipped)
	weights  []int
	tweights []int
	// fast records whether the most recent Solve took the all-fits fast
	// path. Kept on the Solver (not in Result) so Result stays bit-for-bit
	// comparable against SolveReference's.
	fast bool
}

// state is one Pareto-optimal DP state: the best value v over subsets whose
// rounded footprint is exactly (m memory units, t thread units). The empty
// subset (0, 0, 0) is always present and never dominated.
type state struct {
	m, t int
	v    int64
}

// NewSolver returns an empty Solver; buffers grow on first use.
func NewSolver() *Solver { return &Solver{} }

// TookFastPath reports whether the most recent Solve skipped the DP via the
// all-fits fast path (observability; see internal/obs).
func (s *Solver) TookFastPath() bool { return s.fast }

// Solve solves one instance, reusing the Solver's buffers. The objective is
// maximum total Value subject to the memory capacity and (when
// ThreadCapacity > 0) the thread capacity. Items whose individual weight
// exceeds a capacity are never selected.
func (s *Solver) Solve(cfg Config, items []Item) Result {
	cfg = cfg.withDefaults()
	validate(items)
	s.fast = false
	if cfg.MemCapacity <= 0 || len(items) == 0 {
		return Result{}
	}
	if cfg.ThreadCapacity > 0 {
		return s.solve2D(cfg, items)
	}
	return s.solve1D(cfg, items)
}

// growInts returns an *uninitialized* slice of length n (callers overwrite
// every element).
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// solve1D solves the paper's memory-only knapsack (no thread dimension).
func (s *Solver) solve1D(cfg Config, items []Item) Result {
	W := int(cfg.MemCapacity / cfg.MemGranularity) // capacity rounded down: conservative
	if W == 0 {
		return Result{}
	}
	n := len(items)
	s.weights = growInts(s.weights, n)
	sumW := 0
	for i, it := range items {
		w := ceilDiv(int(it.Mem), int(cfg.MemGranularity))
		s.weights[i] = w
		if w > W {
			continue
		}
		sumW += w
	}
	if sumW <= W {
		// Every feasible item fits together: no packing decision to make.
		s.fast = true
		return takeAllFeasible(items, s.weights, nil, W, 0)
	}
	// With tweights nil every thread weight is 0 and the thread budget 0 is
	// never binding, so the sparse core degenerates to the 1-D recurrence.
	return s.solveSparse(items, s.weights, nil, W, 0)
}

// solve2D bounds both memory and total threads:
// dp[m][t] = best value with memory budget m and thread budget t.
func (s *Solver) solve2D(cfg Config, items []Item) Result {
	W := int(cfg.MemCapacity / cfg.MemGranularity)
	T := int(cfg.ThreadCapacity / cfg.ThreadGranularity) // rounded down: conservative
	if W == 0 || T == 0 {
		return Result{}
	}
	n := len(items)
	s.weights = growInts(s.weights, n)
	s.tweights = growInts(s.tweights, n)
	sumW, sumT := 0, 0
	for i, it := range items {
		w := ceilDiv(int(it.Mem), int(cfg.MemGranularity))
		th := int(it.Threads)
		if th < 0 {
			th = 0
		}
		tw := ceilDiv(th, int(cfg.ThreadGranularity))
		s.weights[i] = w
		s.tweights[i] = tw
		if w > W || tw > T {
			continue
		}
		sumW += w
		sumT += tw
	}
	if sumW <= W && sumT <= T {
		s.fast = true
		return takeAllFeasible(items, s.weights, s.tweights, W, T)
	}
	return s.solveSparse(items, s.weights, s.tweights, W, T)
}

// solveSparse runs the Pareto-frontier DP and reconstructs the selection.
//
// Equivalence with the reference's dense in-place sweep: during the
// reference's descending sweep for item i, both cells it reads still hold
// the previous item's values, so its take bit at (m, t) is set iff
//
//	dp_{i-1}(m−w, t−tw) + v  >  dp_{i-1}(m, t)
//
// where dp_{i-1}(a, b) is the best value over subsets of items[0..i-1] with
// footprint ≤ (a, b) — a corner query the frontier answers exactly (dropping
// dominated states can never change a corner maximum, and states above
// (W, T) can never be selected). The reconstruction below replays the
// reference's descending walk from (W, T) evaluating that inequality
// directly against the frontier snapshot taken before item i was merged.
func (s *Solver) solveSparse(items []Item, weights, tweights []int, W, T int) Result {
	n := len(items)
	s.histOff = growInts(s.histOff, 2*n)
	hist := s.hist[:0]
	cur := append(s.cur[:0], state{})
	for i, it := range items {
		w, tw := weights[i], 0
		if tweights != nil {
			tw = tweights[i]
		}
		if w > W || tw > T || it.Value == 0 {
			s.histOff[2*i+1] = -1
			continue
		}
		s.histOff[2*i] = len(hist)
		s.histOff[2*i+1] = len(cur)
		hist = append(hist, cur...)
		cur = s.mergeItem(cur, w, tw, it.Value, W, T)
	}
	s.hist = hist
	s.cur = cur

	var best int64
	for _, st := range cur {
		if st.v > best {
			best = st.v
		}
	}
	res := Result{Value: best}
	m, t := W, T
	for i := n - 1; i >= 0; i-- {
		plen := s.histOff[2*i+1]
		if plen < 0 {
			continue
		}
		w, tw := weights[i], 0
		if tweights != nil {
			tw = tweights[i]
		}
		if m < w || t < tw {
			continue
		}
		off := s.histOff[2*i]
		prev := hist[off : off+plen]
		if corner(prev, m-w, t-tw)+items[i].Value > corner(prev, m, t) {
			res.Selected = append(res.Selected, i)
			res.Mem += items[i].Mem
			res.Threads += items[i].Threads
			m -= w
			t -= tw
		}
	}
	reverse(res.Selected)
	return res
}

// corner returns dp(a, b) = max{v : state (m, t, v) in P with m ≤ a, t ≤ b}.
// P always contains the empty subset, so the maximum is at least 0.
func corner(P []state, a, b int) int64 {
	var best int64
	for _, st := range P {
		if st.m <= a && st.t <= b && st.v > best {
			best = st.v
		}
	}
	return best
}

// mergeItem folds one item into the frontier: cur ∪ (cur + item), clipped to
// the budgets and pruned to the non-dominated states. cur must be sorted by
// (m, t); the result reuses cur's storage (callers have already snapshotted
// it) and preserves the invariant.
func (s *Solver) mergeItem(cur []state, w, tw int, v int64, W, T int) []state {
	shift := s.shift[:0]
	for _, st := range cur {
		if st.m+w <= W && st.t+tw <= T {
			shift = append(shift, state{st.m + w, st.t + tw, st.v + v})
		}
	}
	s.shift = shift

	// Merge the two frontiers ordered by (m asc, t asc, v desc) so that at
	// equal footprint the better value is seen first by the pruning pass.
	merged := s.merged[:0]
	i, j := 0, 0
	for i < len(cur) && j < len(shift) {
		if stateLess(cur[i], shift[j]) {
			merged = append(merged, cur[i])
			i++
		} else {
			merged = append(merged, shift[j])
			j++
		}
	}
	merged = append(merged, cur[i:]...)
	merged = append(merged, shift[j:]...)
	s.merged = merged

	// Dominance pruning. Walking in (m, t, -v) order, every previously kept
	// state has m ≤ the candidate's, so domination reduces to a (t, v) query
	// over the kept set: is there a kept state with t ≤ cand.t and v ≥
	// cand.v? The staircase holds that set's (t, v) Pareto view — t and v
	// both strictly increasing — so the rightmost entry with t ≤ cand.t
	// carries the best value at-or-under cand.t.
	stair := s.stair[:0]
	out := cur[:0]
	for _, c := range merged {
		kk := sort.Search(len(stair), func(x int) bool { return stair[x].t >= c.t })
		last := kk - 1
		if kk < len(stair) && stair[kk].t == c.t {
			last = kk
		}
		if last >= 0 && stair[last].v >= c.v {
			continue // dominated (or an exact duplicate)
		}
		out = append(out, c)
		// Insert (c.t, c.v): entries with t ≥ c.t and v ≤ c.v are now
		// dominated; with v ascending they form a prefix of stair[kk:].
		drop := kk
		for drop < len(stair) && stair[drop].v <= c.v {
			drop++
		}
		switch {
		case drop == kk: // pure insertion
			stair = append(stair, state{})
			copy(stair[kk+1:], stair[kk:])
		case drop > kk+1: // replace the run with the one new entry
			stair = append(stair[:kk+1], stair[drop:]...)
		}
		stair[kk] = state{t: c.t, v: c.v}
	}
	s.stair = stair
	return out
}

// stateLess orders states by (m asc, t asc, v desc).
func stateLess(a, b state) bool {
	if a.m != b.m {
		return a.m < b.m
	}
	if a.t != b.t {
		return a.t < b.t
	}
	return a.v > b.v
}

// takeAllFeasible implements the all-fits fast path: select every
// individually feasible item with positive value, in index order.
// tweights may be nil for the 1-D solver (no thread dimension).
func takeAllFeasible(items []Item, weights, tweights []int, W, T int) Result {
	var res Result
	for i, it := range items {
		if weights[i] > W {
			continue
		}
		if tweights != nil && tweights[i] > T {
			continue
		}
		if it.Value <= 0 {
			continue
		}
		res.Selected = append(res.Selected, i)
		res.Value += it.Value
		res.Mem += it.Mem
		res.Threads += it.Threads
	}
	return res
}

func reverse(xs []int) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}
