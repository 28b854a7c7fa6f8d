// Package shardapp exercises the shardsafe ownership model: one scan that
// verifies cleanly through the full owned-derivation chain (index → element
// → owned-bounds slice → masked callee), and workers that race on pool and
// package state in every way the rule must catch.
package shardapp

import "phishare/internal/sim"

type tally struct {
	n int
}

type shard struct {
	lo, hi int
	vals   []int
	t      tally
}

// Pool is the shared aggregate the workers partition.
type Pool struct {
	eng    *sim.Engine
	shards []shard
	table  []int
	total  int
}

// GoodScan is the sanctioned pattern: worker k touches only shards[k] and
// the table partition bounded by it, through a helper whose receiver stays
// shared but whose written parameters are owned. Zero findings.
func (p *Pool) GoodScan() {
	shards := p.shards
	p.eng.Fanout(len(shards), func(k int) {
		p.fill(&shards[k], k)
	})
}

// fill writes only through sh (owned at both call sites' masks) and the
// table partition sliced by sh's bounds.
func (p *Pool) fill(sh *shard, k int) {
	sh.vals = append(sh.vals, k)
	sh.t.n++
	part := p.table[sh.lo:sh.hi]
	for i := range part {
		part[i] = k
	}
}

// BadScan races twice: a direct write to receiver state in the worker, and
// the same write one call deeper where the receiver mask is shared.
func (p *Pool) BadScan() {
	p.eng.Fanout(len(p.shards), func(k int) {
		p.total += k
		p.bump()
	})
}

func (p *Pool) bump() {
	p.total++
}

// Queue hands Fanout an opaque worker: nothing to verify, so it is flagged
// at the argument.
func (p *Pool) Queue(w func(int)) {
	p.eng.Fanout(2, w)
}

// CapturedScan races through a captured local: every worker increments the
// same enclosing-frame accumulator. The worker's own local and the
// owned-index write into the captured table stay clean.
func (p *Pool) CapturedScan() int {
	total := 0
	sums := make([]int, len(p.shards))
	p.eng.Fanout(len(p.shards), func(k int) {
		local := 0
		local++
		total += local
		sums[k] = local
	})
	return total
}

// BadScanTwin repeats BadScan's transitive race from a second Fanout entry:
// the bump violation must be attributed here too, so an ignore directive
// covering BadScan's entry cannot silently cover this one.
func (p *Pool) BadScanTwin() {
	p.eng.Fanout(len(p.shards), func(k int) {
		p.bump()
	})
}
