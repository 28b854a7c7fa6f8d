package faults

import (
	"fmt"
	"sort"
	"strings"

	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/obs"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// maxViolations caps how many violations one run records; a single broken
// invariant tends to fail on every subsequent event, and the first few
// messages carry all the diagnostic value.
const maxViolations = 20

// Checker audits the stack's conservation laws. Install its Check method as
// the engine's AfterStep hook so it runs at every event boundary, register
// it as a consumer on the pool's observer (it is an obs.EventSink reading
// the condor-layer job lifecycle), and call Finish once the engine drains
// for the terminal checks. The checker only reads component state (plus
// the lazy dead-process purge inside cosmic.DeclaredFree, which is
// outcome-neutral by construction), so a checked run's outcomes are
// bit-identical to an unchecked one.
type Checker struct {
	eng  *sim.Engine
	clu  *cluster.Cluster
	pool *condor.Pool

	violations []string

	// memGuarded records whether the policy's machine-side Requirements
	// reference PhiFreeMemory. Only a memory-guarded negotiator (MC, MCCK)
	// promises FreeMem never goes negative; MCC's cluster layer is
	// deliberately memory-oblivious — its FreeMem is an unguarded ledger and
	// the memory law is enforced by COSMIC at the node (checkDevices).
	memGuarded bool

	// terminalCount verifies that OnTerminal — the "done" callback external
	// tooling depends on — fires exactly once per job. Keyed by job ID;
	// wired by Harness through the pool's OnTerminal chain.
	terminalCount map[int]int

	// lives tallies each job's condor-layer lifecycle events, keyed by job
	// ID; Consume fills it and the terminal checks read it.
	lives map[int]*lifecycle

	// checkPool's duplicate detector, reused across events: seenAt[id] ==
	// sweep marks job ID id as seen in the current sweep, for IDs in
	// [0, len(pool.Jobs())) (every generated job set); seenOther holds any
	// other ID and is cleared per sweep.
	seenAt    []uint64
	seenOther map[int]bool
	sweep     uint64
}

// NewChecker builds a checker over an assembled stack. Wire Check into
// eng.AfterStep, NoteTerminal into the pool's OnTerminal chain, and the
// checker itself into the pool observer's consumers (Harness.Wire does all
// three).
//
// The checker's per-event sweeps (checkPool, Finish) reconcile against the
// pool's retained job queue, so it cannot audit a streaming pool — whose
// terminal jobs are gone by design. That combination is refused here, at
// wiring time, rather than silently passing vacuous checks over an empty
// queue. Streaming chaos runs instead diff their aggregates against a
// checked retained twin (experiments.StreamChaosCell).
func NewChecker(eng *sim.Engine, clu *cluster.Cluster, pool *condor.Pool) *Checker {
	if !pool.RetainsJobs() {
		panic("faults: invariant checker requires a job-retaining pool; streaming pools drop the queue it audits")
	}
	return &Checker{
		eng: eng, clu: clu, pool: pool,
		memGuarded:    strings.Contains(pool.Policy().MachineRequirements(), condor.AttrPhiFreeMemory),
		terminalCount: map[int]int{},
		lives:         map[int]*lifecycle{},
		seenOther:     map[int]bool{},
	}
}

func (c *Checker) fail(format string, args ...any) {
	if len(c.violations) < maxViolations {
		msg := fmt.Sprintf(format, args...)
		c.violations = append(c.violations, fmt.Sprintf("t=%v: %s", c.eng.Now(), msg))
	}
}

// NoteTerminal records one OnTerminal delivery for exactly-once accounting.
func (c *Checker) NoteTerminal(q *condor.QueuedJob) {
	c.terminalCount[q.Job.ID]++
}

// Check runs the per-event structural invariants. It is the engine
// AfterStep hook: cheap enough to run after every event (a few short loops
// over machines, jobs and resident processes).
func (c *Checker) Check() {
	c.checkMachines()
	c.checkPool()
	c.checkDevices()
}

// checkMachines verifies each machine's claim bookkeeping against the
// resident set it implies, and the pool's offline counter and free-slot
// index against a full scan (finishCycle trusts the counter and the
// negotiator the index; claim, jobDone and SetOffline are their only
// writers, so drift here means a bypass wrote Machine.Offline or
// Machine.Resident directly).
func (c *Checker) checkMachines() {
	offline, free := 0, 0
	for _, m := range c.pool.Machines() {
		if m.Offline {
			offline++
		}
		isFree := !m.Offline && !m.AtCapacity()
		if isFree {
			free++
		}
		if got := c.pool.InFreeIndex(m); got != isFree {
			c.fail("machine %s: free-slot index says free=%v, but offline=%v with %d/%d slots claimed",
				m.Name, got, m.Offline, len(m.Resident), m.HostSlots)
		}
	}
	if got := c.pool.OfflineMachines(); got != offline {
		c.fail("pool: offline counter %d != %d machines marked offline", got, offline)
	}
	if got := c.pool.FreeMachines(); got != free {
		c.fail("pool: free-slot count %d != %d machines online with a free slot", got, free)
	}
	for _, m := range c.pool.Machines() {
		if c.memGuarded && m.FreeMem < 0 {
			var ids []int
			for _, q := range m.Resident {
				ids = append(ids, q.Job.ID)
			}
			c.fail("machine %s: FreeMem negative (%v) under a memory-guarded negotiator, residents %v",
				m.Name, m.FreeMem, ids)
		}
		if m.ResidentThreads < 0 {
			c.fail("machine %s: ResidentThreads negative (%v)", m.Name, m.ResidentThreads)
		}
		if len(m.Resident) > m.HostSlots {
			c.fail("machine %s: %d resident jobs exceed %d host slots",
				m.Name, len(m.Resident), m.HostSlots)
		}
		var mem units.MB
		var thr units.Threads
		for _, q := range m.Resident {
			mem += q.Job.Mem
			thr += q.Job.Threads
			if q.State != condor.Dispatched {
				c.fail("machine %s: resident job %d in state %v", m.Name, q.Job.ID, q.State)
			}
		}
		total := m.Unit.Device.Config().Memory
		if m.FreeMem != total-mem {
			c.fail("machine %s: FreeMem %v != memory %v - resident declared %v",
				m.Name, m.FreeMem, total, mem)
		}
		if m.ResidentThreads != thr {
			c.fail("machine %s: ResidentThreads %v != resident declared %v",
				m.Name, m.ResidentThreads, thr)
		}
	}
}

// checkPool verifies job-state conservation: no job lost, duplicated, or
// double-counted between the pending queue and the in-flight counter.
func (c *Checker) checkPool() {
	idle, dispatched := 0, 0
	for _, q := range c.pool.Jobs() {
		switch q.State {
		case condor.Idle:
			idle++
		case condor.Dispatched:
			dispatched++
		}
	}
	if inFlight := c.pool.InFlight(); inFlight != dispatched {
		c.fail("pool: inFlight %d != %d jobs in Dispatched state", inFlight, dispatched)
	}
	pending := c.pool.Pending()
	if len(pending) != idle {
		c.fail("pool: pending queue has %d jobs, %d jobs in Idle state", len(pending), idle)
	}
	c.sweep++
	clear(c.seenOther)
	for _, q := range pending {
		if q.State != condor.Idle {
			c.fail("pool: pending job %d in state %v", q.Job.ID, q.State)
		}
		if c.seenTwice(q.Job.ID) {
			c.fail("pool: job %d queued twice", q.Job.ID)
		}
	}
}

// seenTwice marks id seen in the current checkPool sweep and reports whether
// it already was.
func (c *Checker) seenTwice(id int) bool {
	n := len(c.pool.Jobs())
	if id < 0 || id >= n {
		if c.seenOther[id] {
			return true
		}
		c.seenOther[id] = true
		return false
	}
	if len(c.seenAt) < n {
		c.seenAt = append(c.seenAt, make([]uint64, n-len(c.seenAt))...)
	}
	if c.seenAt[id] == c.sweep {
		return true
	}
	c.seenAt[id] = c.sweep
	return false
}

// checkDevices verifies device- and COSMIC-level resource sanity.
func (c *Checker) checkDevices() {
	for _, u := range c.clu.Units {
		cfg := u.Device.Config()
		if cm := u.Device.CommittedMemory(); cm > cfg.Memory {
			c.fail("device %s: committed %v exceeds device memory %v (OOM killer slept)",
				u.SlotName, cm, cfg.Memory)
		}
		if u.Cosmic == nil {
			continue // raw MPSS oversubscribes threads by design
		}
		if rt := u.Device.RunningThreads(); rt > cfg.HWThreads() {
			c.fail("device %s: running threads %v exceed hardware threads %v under COSMIC",
				u.SlotName, rt, cfg.HWThreads())
		}
		if free := u.Cosmic.DeclaredFree(); free < 0 {
			c.fail("device %s: COSMIC declared-free memory negative (%v)", u.SlotName, free)
		}
	}
}

// lifecycle is one job's condor-layer event tally.
type lifecycle struct {
	submits, matches, executes, terminates, crashes, resubmits, aborts int
	// lastExec is the time of the job's latest execute; ran sums its
	// execute → crash/terminate intervals, the device time fair share
	// must have charged.
	lastExec, ran units.Tick
}

// life returns job id's tally, creating it on first sight.
func (c *Checker) life(id int64) *lifecycle {
	t := c.lives[int(id)]
	if t == nil {
		t = &lifecycle{}
		c.lives[int(id)] = t
	}
	return t
}

// Consume tallies one condor-layer job lifecycle event (submit, match,
// execute, terminate, crash, resubmit, stall_abort); every other event is
// ignored. These are the events spans, critpath and the exports are built
// from, so the audit covers the record they read.
func (c *Checker) Consume(e obs.Event) {
	if e.Layer != obs.LayerCondor {
		return
	}
	id, _ := e.Int("job")
	switch e.Kind {
	case "submit":
		c.life(id).submits++
	case "match":
		c.life(id).matches++
	case "execute":
		t := c.life(id)
		t.executes++
		t.lastExec = e.At
	case "terminate":
		t := c.life(id)
		t.terminates++
		t.ran += e.At - t.lastExec
	case "crash":
		t := c.life(id)
		t.crashes++
		t.ran += e.At - t.lastExec
	case "resubmit":
		c.life(id).resubmits++
	case "stall_abort":
		c.life(id).aborts++
	}
}

// Finish runs the terminal checks after the engine drains and returns every
// recorded violation.
func (c *Checker) Finish() []string {
	for _, q := range c.pool.Jobs() {
		if q.State != condor.Completed && q.State != condor.Failed {
			c.fail("job %d never reached a terminal state (%v)", q.Job.ID, q.State)
		}
		if n := c.terminalCount[q.Job.ID]; n != 1 {
			c.fail("job %d: OnTerminal fired %d times, want exactly once", q.Job.ID, n)
		}
	}
	for _, m := range c.pool.Machines() {
		if len(m.Resident) != 0 {
			c.fail("machine %s: %d jobs still resident after drain", m.Name, len(m.Resident))
		}
	}
	if n := c.pool.InFlight(); n != 0 {
		c.fail("pool: inFlight %d after drain", n)
	}
	c.checkLifecycle()
	c.checkUsage()
	return c.violations
}

// checkLifecycle verifies each job's lifecycle sequence: one submit, every
// match followed by exactly one execute, at most one terminate, and the
// executions conserved — every execution ends in exactly one crash or
// terminate, except a final run cut short by a stall abort.
func (c *Checker) checkLifecycle() {
	for _, q := range c.pool.Jobs() {
		id := q.Job.ID
		t := c.lives[id]
		if t == nil {
			c.fail("job %d: no lifecycle events", id)
			continue
		}
		if t.submits != 1 {
			c.fail("job %d: %d submit events, want 1", id, t.submits)
		}
		if t.matches != t.executes {
			c.fail("job %d: %d matches but %d executions", id, t.matches, t.executes)
		}
		if t.terminates > 1 {
			c.fail("job %d: terminated %d times", id, t.terminates)
		}
		if t.aborts > 1 {
			c.fail("job %d: stall-aborted %d times", id, t.aborts)
		}
		if t.executes != t.crashes+t.terminates {
			c.fail("job %d: %d executions but %d crashes + %d terminations (run lost or duplicated)",
				id, t.executes, t.crashes, t.terminates)
		}
		if t.crashes != q.Crashes {
			c.fail("job %d: %d crash events but Crashes=%d", id, t.crashes, q.Crashes)
		}
		if q.State == condor.Completed && t.terminates != 1 {
			c.fail("job %d: completed with %d terminate events", id, t.terminates)
		}
	}
}

// checkUsage sums each user's device time from the lifecycle tallies — every
// job's execute → crash/terminate intervals, charged to the job's user — and
// compares it with the pool's fair-share accumulator. This is the invariant
// the crash/resubmit double-count bug broke: accruing from the job's *first*
// start charged earlier runs (and idle re-queue gaps) again on each crash.
func (c *Checker) checkUsage() {
	want := map[string]units.Tick{}
	for _, q := range c.pool.Jobs() {
		var ran units.Tick
		if t := c.lives[q.Job.ID]; t != nil {
			ran = t.ran
		}
		want[q.User] += ran
	}
	// Check users in sorted order: violations land in c.violations, so a
	// map-order iteration here would make the recorded (and capped) report
	// nondeterministic whenever more than one user mismatches — the
	// philint:mapiter hazard, caught by the analyzer on this very loop.
	names := make([]string, 0, len(want))
	for u := range want {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		if got := c.pool.Usage(u); got != want[u] {
			c.fail("user %q: fair-share usage %v != %v summed from execution intervals",
				u, got, want[u])
		}
	}
}
