package condor

// MachineVisits reports how many machines matchmaking walks have examined
// since the pool was built.
func (p *Pool) MachineVisits() int { return p.visits }

// Config returns the (defaulted) pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// MatchCacheLen reports the number of memoized match results across every
// machine's autocluster verdict array, for cache-growth regression tests.
func (p *Pool) MatchCacheLen() int {
	n := 0
	for _, m := range p.machines {
		n += len(m.acVals)
	}
	return n
}

// AutoclusterCount reports how many distinct job-ad signatures have been
// interned so far.
func (p *Pool) AutoclusterCount() int { return len(p.acIDs) }

// Submitted is the total number of jobs ever submitted.
func (p *Pool) Submitted() int { return p.submitted }

// Terminal is the number of jobs that reached Completed or Failed.
func (p *Pool) Terminal() int { return p.completedCount + p.failedCount }

// UpdateAd refreshes the machine's advertised resource levels, as claim
// and jobDone do.
func (m *Machine) UpdateAd() { m.updateAd() }
