// Package scheduler defines the Policy and IndexPolicy interfaces whose
// Select and SelectN implementations pureselect discovers by CHA: Random's
// only effect is drawing from the deterministic stream (exempt), Sticky
// memoizes on its receiver (flagged) in both methods.
package scheduler

import "phishare/internal/rng"

// Policy picks one candidate index.
type Policy interface {
	Select(cands []int) int
}

// IndexPolicy picks one of n candidates by rank.
type IndexPolicy interface {
	SelectN(n int) int
}

// Random consults the deterministic stream: allowed by the rng exemption.
type Random struct {
	src *rng.Source
}

// Select draws one candidate uniformly from the stream.
func (r *Random) Select(cands []int) int {
	return cands[int(r.src.Uint64()%uint64(len(cands)))]
}

// SelectN draws one rank uniformly from the stream.
func (r *Random) SelectN(n int) int {
	return int(r.src.Uint64() % uint64(n))
}

// Sticky memoizes its last pick on the receiver: observably impure, two
// calls with the same arguments can differ.
type Sticky struct {
	last int
}

// Select returns the first candidate and remembers it.
func (s *Sticky) Select(cands []int) int {
	if len(cands) > 0 {
		s.last = cands[0]
	}
	return s.last
}

// SelectN returns rank 0 and remembers the candidate count.
func (s *Sticky) SelectN(n int) int {
	s.last = n
	return 0
}

var traced int

// Looper reaches the trace↔chase cycle at trace, the member that writes
// package state.
type Looper struct{}

// Select enters the cycle at the impure member.
func (Looper) Select(cands []int) int { return trace(len(cands)) }

// Chaser reaches the same cycle at chase. Its Select is analyzed after
// Looper's, so a memoized-while-incomplete summary for chase (computed
// while trace was still in progress on the stack) would hide the write
// from this target.
type Chaser struct{}

// Select enters the cycle at the pure member.
func (Chaser) Select(cands []int) int { return chase(len(cands)) }

func trace(n int) int {
	traced++
	if n <= 0 {
		return 0
	}
	return chase(n - 1)
}

func chase(n int) int {
	if n <= 0 {
		return 0
	}
	return trace(n - 1)
}
