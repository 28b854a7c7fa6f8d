// Package runner executes a job's phase profile against a coprocessor: the
// role of Condor's starter process plus the host-side application itself.
// Host phases simply consume time (the paper assumes no host contention,
// §V-A); offload phases go through the device unit — COSMIC-managed or raw.
package runner

import (
	"phishare/internal/cluster"
	"phishare/internal/job"
	"phishare/internal/phi"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// Outcome reports how a job ended.
type Outcome int

const (
	// Completed: all phases ran.
	Completed Outcome = iota
	// Crashed: the device or COSMIC killed the job's process.
	Crashed
)

func (o Outcome) String() string {
	if o == Completed {
		return "completed"
	}
	return "crashed"
}

// Result describes a finished job execution.
type Result struct {
	Outcome Outcome
	// KillReason is meaningful only for Crashed outcomes.
	KillReason phi.KillReason
}

// Run executes j on unit and calls done exactly once when the job completes
// or crashes. The job's process is created when the device admits it:
// immediately under raw MPSS, or once its declared memory fits under
// COSMIC's node-level admission (during which the job occupies its Condor
// slot but makes no progress — the §V cost of memory-oblivious placement).
func Run(unit *cluster.DeviceUnit, j *job.Job, done func(Result)) {
	e := &exec{eng: unit.Engine, unit: unit, j: j, done: done}
	unit.Admit(j, func(p *phi.Process) {
		e.proc = p
		e.proc.OnKill = e.onKill
		if !e.proc.Alive() {
			// Killed synchronously during attach (container/OOM); onKill
			// will fire on the deferred notification.
			return
		}
		e.step()
	})
}

type exec struct {
	eng  *sim.Engine
	unit *cluster.DeviceUnit
	j    *job.Job
	done func(Result)

	proc     *phi.Process
	idx      int
	finished bool
}

func (e *exec) step() {
	if e.finished || !e.proc.Alive() {
		return
	}
	if e.idx >= len(e.j.Phases) {
		e.finish(Result{Outcome: Completed})
		return
	}
	p := e.j.Phases[e.idx]
	e.idx++
	switch p.Kind {
	case job.HostPhase:
		e.eng.After(p.Duration, e.step)
	case job.OffloadPhase:
		// The offload pragma's full sequence: DMA the in() buffers across
		// the node's PCIe link, run the kernel, DMA the out() buffers back.
		// Zero-size transfers short-circuit inside the link.
		e.transfer(p.TransferIn, func() {
			e.unit.Offload(e.proc, p.Threads, p.Duration, func(o phi.OffloadOutcome) {
				if o == phi.OffloadCompleted {
					e.transfer(p.TransferOut, e.step)
				}
				// Aborted offloads are followed by the process's kill
				// notification, which terminates the run via onKill.
			})
		})
	default:
		panic("runner: invalid phase kind in " + e.j.Name)
	}
}

// transfer moves size MB over the node link and continues with next,
// unless the job has meanwhile finished or been killed.
func (e *exec) transfer(size units.MB, next func()) {
	if size == 0 || e.unit.Link == nil {
		next()
		return
	}
	e.unit.Link.Transfer(size, func() {
		if e.finished || !e.proc.Alive() {
			return
		}
		next()
	})
}

func (e *exec) onKill(reason phi.KillReason) {
	if e.finished {
		return
	}
	e.finished = true
	e.done(Result{Outcome: Crashed, KillReason: reason})
}

func (e *exec) finish(r Result) {
	if e.finished {
		return
	}
	e.finished = true
	e.unit.Detach(e.proc)
	e.done(r)
}
