package core

// PlannedCount reports how many jobs the most recent planning round pinned.
func (s *Scheduler) PlannedCount() int { return s.lastPlanned }
