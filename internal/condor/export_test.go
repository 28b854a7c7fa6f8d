package condor

// MachineVisits reports how many machines matchmaking walks have examined
// since the pool was built.
func (p *Pool) MachineVisits() int { return p.visits }
