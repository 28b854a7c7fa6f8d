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
	unit.Admit(j, &exec{eng: unit.Engine, unit: unit, j: j, done: done})
}

// exec is one job's run: a state machine over the job's phases whose
// continuations are tagged events on exec itself (see the tag constants),
// so a phase schedules no closure. exec also receives the run's admission
// (Admitted) and, through its killed view, the process's kill
// notification, so the exec is a run's only allocation in the runner. idx
// is the phase cursor: it points past the phase in progress, whose
// parameters a continuation reads back from Phases[idx-1].
type exec struct {
	eng  *sim.Engine
	unit *cluster.DeviceUnit
	j    *job.Job
	done func(Result)

	proc     *phi.Process
	idx      int
	finished bool
}

// exec's event tags. Offload end notifications go to offloadEnd instead,
// because they carry the outcome in their tag.
const (
	// tagNext starts the next phase: a host phase or a transfer-out is done.
	tagNext uint64 = iota
	// tagTransferredIn launches the kernel: the in() buffers have arrived.
	tagTransferredIn
)

// Admitted starts the run once the device unit has attached the job's
// process.
func (e *exec) Admitted(p *phi.Process) {
	e.proc = p
	p.OnKill = (*killed)(e)
	if !p.Alive() {
		// Killed synchronously during attach (container/OOM); the kill
		// notification follows, deferred.
		return
	}
	e.step()
}

// Fire continues the run after a host phase or a link transfer.
func (e *exec) Fire(tag uint64) {
	switch tag {
	case tagNext:
		e.step()
	case tagTransferredIn:
		if e.alive() {
			e.offload()
		}
	}
}

// alive reports whether the run is still in progress.
func (e *exec) alive() bool { return !e.finished && e.proc.Alive() }

func (e *exec) step() {
	if !e.alive() {
		return
	}
	if e.idx >= len(e.j.Phases) {
		e.finish(Result{Outcome: Completed})
		return
	}
	p := &e.j.Phases[e.idx]
	e.idx++
	switch p.Kind {
	case job.HostPhase:
		e.eng.AfterH(p.Duration, e, tagNext)
	case job.OffloadPhase:
		// The offload pragma's full sequence: DMA the in() buffers across
		// the node's PCIe link, run the kernel, DMA the out() buffers back.
		// Zero-size transfers short-circuit inside the link.
		e.transfer(p.TransferIn, tagTransferredIn)
	default:
		panic("runner: invalid phase kind in " + e.j.Name)
	}
}

// offload runs the current phase's kernel.
func (e *exec) offload() {
	p := &e.j.Phases[e.idx-1]
	e.unit.Offload(e.proc, p.Threads, p.Duration, (*offloadEnd)(e), 0)
}

// offloadEnd is exec in its role as the handler of offload end
// notifications, whose tag carries the phi.OffloadOutcome.
type offloadEnd exec

func (x *offloadEnd) Fire(tag uint64) {
	// Aborted offloads are followed by the process's kill notification,
	// which terminates the run via killed.
	if phi.OutcomeOf(tag) == phi.OffloadCompleted {
		e := (*exec)(x)
		e.transfer(e.j.Phases[e.idx-1].TransferOut, tagNext)
	}
}

// transfer moves size MB over the node link and then continues with
// e.Fire(next): at once when there is nothing to move, otherwise when the
// link delivers (Fire drops the continuation if the job has meanwhile
// finished or been killed).
func (e *exec) transfer(size units.MB, next uint64) {
	if size == 0 || e.unit.Link == nil {
		e.Fire(next)
		return
	}
	e.unit.Link.Transfer(size, e, next)
}

// killed is exec in its role as the handler of its process's kill
// notification, whose tag carries the phi.KillReason.
type killed exec

func (x *killed) Fire(reason uint64) {
	e := (*exec)(x)
	if e.finished {
		return
	}
	e.finished = true
	e.done(Result{Outcome: Crashed, KillReason: phi.KillReason(reason)})
}

func (e *exec) finish(r Result) {
	if e.finished {
		return
	}
	e.finished = true
	e.unit.Detach(e.proc)
	e.done(r)
}
