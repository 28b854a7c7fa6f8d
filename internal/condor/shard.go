package condor

// Sharded negotiation (Config.NegotiationShards).
//
// The serial negotiator is a FIFO scan: for each pending job, evaluate every
// machine's ad and let the policy pick among the matches. At the 10k-node /
// 100k-job scale the ROADMAP targets, that scan is the last single-threaded
// stage in the stack. The sharded negotiator splits it three ways:
//
//  1. Pre-pass (serial). Sign every pending job into its autocluster and
//     collapse the queue into cycle-local slots: jobs with equal matchmaking
//     signatures share one slot, so the scan below evaluates each (slot,
//     machine) pair once instead of each (job, machine) pair. This is the
//     same collapse the autocluster cache performs, made explicit so the
//     scan can be partitioned.
//
//  2. Scan (parallel). The machine inventory is partitioned into contiguous
//     shards at pool construction. Each shard worker — running inside the
//     negotiation event via sim.Engine.Fanout — walks its machines against
//     every slot's representative job and records, in machine order, which
//     of its machines match each slot. All state a worker writes (the shard's
//     candidate lists, its tally, each machine's acVals verdict array) is
//     exclusive to that worker; everything shared (job ads, the slot table,
//     machine ads) is read-only during the scan. classad.Match is pure. A
//     slot whose autocluster folds (Pool.acFold) costs no Match evaluation:
//     a FoldFalse slot records no machine, a FoldTrue slot every machine
//     with a free host slot.
//
//  3. Commit (serial, canonical order). Walk the pending queue in the exact
//     order the serial scan would have — (priority, arrival), or the
//     fair-share order — and assemble each job's candidate list by
//     concatenating its slot's per-shard lists in shard order, which is
//     machine order. A machine claimed earlier in this commit carries the
//     cycle's claimGen stamp and is re-validated against its live ad (the
//     optimistic-claim conflict resolution); every other machine's ad is
//     bit-identical to its snapshot, so the snapshot verdict stands. The
//     policy's Select then runs with exactly the candidate list the serial
//     scan would have built, in the same call order — which keeps policy RNG
//     draws, claims, records and follow-up events bit-identical (Policy
//     documents the claim-monotonicity assumption this rests on). A job
//     whose slot already came up empty earlier in the commit is left idle
//     without assembling candidates — the serial scan's per-cycle
//     autocluster rejection, keyed by slot.

import (
	"phishare/internal/classad"
	"phishare/internal/obs"
)

// negShard is one contiguous partition of the machine inventory plus its
// per-cycle scan output. flat/off form a packed candidate table: the
// machines of this shard matching cycle slot s, in machine order, are
// flat[off[s]:off[s+1]].
type negShard struct {
	lo, hi int // machine index range [lo, hi)
	flat   []*Machine
	off    []int
	tally  shardTally
}

// shardTally accumulates one shard's cache statistics for a cycle. Workers
// write their own tally; the pool merges them into the shared observability
// counters after the join, in shard order.
type shardTally struct {
	hits   int64 // autocluster cache hits
	misses int64 // cold entries
	inv    int64 // stale entries (machine ad moved since caching)
	evals  int64 // full classad.Match evaluations
	cands  int64 // candidate (slot, machine) pairs recorded
}

// planShards fixes the machine partition at pool construction: K contiguous
// ranges differing in size by at most one. Sharding requires the
// autocluster snapshot, so the cache-disabled replay configurations keep
// the serial scan whatever the knob says.
func (p *Pool) planShards() {
	k := p.cfg.NegotiationShards
	if k <= 0 || p.cfg.DisableAutoclusters || p.cfg.DisableMatchCache {
		p.shardRanges = [][2]int{{0, len(p.machines)}}
		return
	}
	if k > len(p.machines) {
		k = len(p.machines)
	}
	if k < 1 {
		k = 1
	}
	base, rem := len(p.machines)/k, len(p.machines)%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		p.shards = append(p.shards, negShard{lo: lo, hi: hi})
		p.shardRanges = append(p.shardRanges, [2]int{lo, hi})
		lo = hi
	}
}

// ShardRanges returns the sharded negotiator's machine partition as
// [lo, hi) index pairs into Machines(), or a single full-range pair when
// the pool scans serially. The MCCK planner uses it to organize its greedy
// knapsack loop into per-shard rounds; the slice is owned by the pool.
func (p *Pool) ShardRanges() [][2]int { return p.shardRanges }

// negotiateSharded is the sharded replacement for scanSerial; see the file
// comment for the three-phase structure.
func (p *Pool) negotiateSharded() (matched int) {
	// Phase 1: serial pre-pass. All autocluster ids seen this cycle are
	// >= base (ids grow monotonically and cached ids below acBase re-sign),
	// so slotOf indexed by id−base is dense and collision-free even if the
	// signature table turns over mid-pass.
	base := p.acBase
	if cap(p.jobSlots) < len(p.pending) {
		p.jobSlots = make([]int32, len(p.pending))
	}
	jobSlots := p.jobSlots[:len(p.pending)]
	p.cycleACs = p.cycleACs[:0]
	p.slotJobs = p.slotJobs[:0]
	p.slotFold = p.slotFold[:0]
	for i, q := range p.pending {
		ac := p.autoclusterOf(q)
		idx := ac - base
		for len(p.slotOf) <= idx {
			p.slotOf = append(p.slotOf, 0)
		}
		s := p.slotOf[idx]
		if s == 0 {
			p.cycleACs = append(p.cycleACs, ac)
			p.slotJobs = append(p.slotJobs, q)
			// Read the fold now: a later era reset in this pass truncates it.
			p.slotFold = append(p.slotFold, p.acFold[ac-p.acBase])
			s = int32(len(p.cycleACs)) // slot+1; 0 means unassigned
			p.slotOf[idx] = s
		}
		jobSlots[i] = s - 1
	}

	// Phase 2: parallel per-shard scan inside the negotiation event.
	shards := p.shards
	// Concurrency lives behind sim.Engine.Fanout — the sanctioned worker
	// pool — so this package stays free of host concurrency primitives
	// (the simgoroutine contract).
	p.eng.Fanout(len(shards), func(k int) {
		p.scanShard(&shards[k])
	})
	for k := range shards {
		t := &shards[k].tally
		p.obsCacheHit.Add(t.hits)
		p.obsCacheMiss.Add(t.misses)
		p.obsCacheInv.Add(t.inv)
		p.obsEvalSaved.Add(t.hits) // every hit saved one Match evaluation
		if k < len(p.obsShardEvals) {
			p.obsShardEvals[k].Add(t.evals)
			p.obsShardCands[k].Add(t.cands)
		}
	}
	p.obsAutoclu.Set(float64(len(p.cycleACs)))
	if p.obs != nil {
		now := p.eng.Now()
		for k := range shards {
			sh := &shards[k]
			p.obs.Emit(now, obs.LayerCondor, "shard_scan",
				obs.F("shard", k),
				obs.F("machines", sh.hi-sh.lo),
				obs.F("clusters", len(p.cycleACs)),
				obs.F("evals", sh.tally.evals),
				obs.F("cache_hits", sh.tally.hits),
				obs.F("candidates", sh.tally.cands))
		}
	}

	// Phase 3: serial commit in canonical job order.
	still := p.pending[:0]
	if cap(p.candScratch) < len(p.machines) {
		p.candScratch = make([]*Machine, 0, len(p.machines))
	}
	for len(p.slotRejected) < len(p.cycleACs) {
		p.slotRejected = append(p.slotRejected, 0)
	}
	for i, q := range p.pending {
		s := jobSlots[i]
		if p.slotRejected[s] == p.cacheGen {
			// An earlier job of this slot found no candidate this cycle.
			still = append(still, q)
			continue
		}
		candidates := p.candScratch[:0]
		for k := range shards {
			sh := &shards[k]
			for _, m := range sh.flat[sh.off[s]:sh.off[s+1]] {
				if m.claimGen == p.cacheGen {
					// Claimed earlier in this commit: the snapshot verdict is
					// stale, re-validate against the live ad (and the slot and
					// offline guards the scan applied at snapshot time).
					if m.Offline || m.AtCapacity() ||
						(p.slotFold[s] != classad.FoldTrue && !p.commitMatch(m, q)) {
						continue
					}
				}
				candidates = append(candidates, m)
			}
		}
		idx := -1
		if len(candidates) > 0 {
			p.selectCall++
			idx = p.policy.Select(p, q, candidates)
		} else {
			p.slotRejected[s] = p.cacheGen
		}
		if idx < 0 || idx >= len(candidates) {
			still = append(still, q)
			continue
		}
		p.claim(q, candidates[idx])
		matched++
	}
	for i := len(still); i < len(p.pending); i++ {
		p.pending[i] = nil // drop matched-job references past the new length
	}
	p.pending = still

	// Reset the slot table for the next cycle; only touched entries cost.
	for _, ac := range p.cycleACs {
		p.slotOf[ac-base] = 0
	}
	return matched
}

// scanShard evaluates every (cycle slot, shard machine) pair against the
// snapshot and records the matches in machine order. Runs on a Fanout
// worker: it writes only this shard's state and the shard's own machines'
// verdict arrays, and reads everything else immutably.
func (p *Pool) scanShard(sh *negShard) {
	sh.flat = sh.flat[:0]
	sh.off = sh.off[:0]
	sh.tally = shardTally{}
	machines := p.machines[sh.lo:sh.hi]
	for s, ac := range p.cycleACs {
		sh.off = append(sh.off, len(sh.flat))
		fold := p.slotFold[s]
		if fold == classad.FoldFalse {
			continue // no machine matches: the slot's commit list is empty
		}
		q := p.slotJobs[s]
		idx := ac - p.acBase
		for _, m := range machines {
			if m.Offline || m.AtCapacity() {
				continue
			}
			var ok bool
			switch {
			case fold == classad.FoldTrue:
				ok = true
			case idx >= 0:
				ok = m.shardMatch(q, idx, &sh.tally)
			default:
				// The signature table turned over after this job signed:
				// its prior-era id has no cache row, evaluate uncached.
				ok = classad.Match(m.Ad, q.Ad)
				sh.tally.evals++
			}
			if ok {
				sh.flat = append(sh.flat, m)
			}
		}
	}
	sh.off = append(sh.off, len(sh.flat))
	sh.tally.cands = int64(len(sh.flat))
}

// shardMatch is matchCluster for the concurrent scan: identical cache
// semantics, but statistics go to the shard's private tally instead of the
// pool's shared observability counters (which workers must not touch).
func (m *Machine) shardMatch(q *QueuedJob, idx int, t *shardTally) bool {
	for len(m.acVals) <= idx {
		m.acVals = append(m.acVals, acVal{})
	}
	mvp := m.Ad.Version() + 1
	if v := m.acVals[idx]; v.mvp != 0 {
		if v.mvp == mvp {
			t.hits++
			return v.ok
		}
		t.inv++
	} else {
		t.misses++
	}
	ok := classad.Match(m.Ad, q.Ad)
	t.evals++
	m.acVals[idx] = acVal{mvp: mvp, ok: ok}
	return ok
}

// commitMatch re-evaluates a snapshot candidate against the machine's live
// (post-claim) ad during the commit phase, going through the autocluster
// cache so the fresh verdict lands where the next cycle's scan will look.
func (p *Pool) commitMatch(m *Machine, q *QueuedJob) bool {
	if q.acID >= p.acBase {
		return p.matchCluster(m, q, q.acID)
	}
	return classad.Match(m.Ad, q.Ad)
}
