// Package cosmic reimplements the node-level behaviour of COSMIC [6], the
// Xeon Phi middleware the paper layers its cluster scheduler on (§IV-D2).
//
// COSMIC is a transparent add-on to MPSS that makes coprocessor sharing
// safe within one compute node. Exactly the three behaviours the paper
// relies on are implemented:
//
//  1. Offload scheduling: an offload is dispatched to the device only when
//     enough free hardware threads exist, so thread oversubscription never
//     happens. Waiting offloads are served in arrival order: a wide offload
//     at the head blocks later ones even if they would fit, which preserves
//     fairness and prevents starvation of wide offloads (a 240-thread
//     offload would otherwise wait forever behind a stream of narrow ones).
//     The head-of-line idleness this causes on width-incompatible job mixes
//     is precisely the cost the knapsack scheduler avoids by packing
//     complementary thread widths. Setting Bypass selects a work-conserving
//     first-fit scan instead (the dispatch-discipline ablation).
//
//  2. Core affinitization: dispatched offloads are pinned to disjoint
//     cores, so two 120-thread offloads use all 60 cores rather than
//     fighting over the same 30 (the device's Affinitized accounting).
//
//  3. Memory containers: a job whose actual memory exceeds its declared
//     limit is killed at the moment of violation, protecting the other
//     tenants from a user's underestimate.
//
// COSMIC also performs node-level memory admission: a job is admitted to
// the device only when its declared memory fits alongside the declared
// memory of the jobs already admitted. This is how "COSMIC prevents them
// from oversubscribing memory" for the MCC configuration (§V), whose
// cluster level packs jobs to nodes *arbitrarily*: a job that lands on a
// full device waits at the node — holding its Condor slot — until memory
// frees. The knapsack scheduler's placements always fit, so under MCCK
// admission never blocks; the blocked-slot waste is precisely the gap
// between random and sharing-aware packing.
package cosmic

import (
	"fmt"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/phi"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// Stats aggregates manager activity.
type Stats struct {
	OffloadsDispatched int
	OffloadsQueued     int // offloads that had to wait at least once
	ContainerKills     int
	MaxQueueLen        int
	// TotalQueueWait accumulates time offloads spent waiting for threads;
	// the serialization cost visible in Fig. 2's time-multiplexed case.
	TotalQueueWait units.Tick
	// AdmissionsBlocked counts jobs that arrived at a device without room
	// for their declared memory and had to wait (holding their host slot).
	AdmissionsBlocked int
	// TotalAdmitWait accumulates that waiting time.
	TotalAdmitWait units.Tick
	// MaxAdmitted is the peak number of concurrently admitted jobs.
	MaxAdmitted int
}

// request is one offload, from Offload until its end notification. While
// dispatched it is the device-side handler of that notification: its Fire
// passes the outcome on to the owner's h and tag, then re-runs dispatch and
// memory admission.
type request struct {
	m        *Manager
	proc     *phi.Process
	threads  units.Threads
	work     units.Tick
	h        sim.Handler
	tag      uint64
	enqueued units.Tick
	waited   bool
}

// admitReq is one job waiting for node-level memory admission.
type admitReq struct {
	j       *job.Job
	ready   interface{ Admitted(*phi.Process) }
	arrived units.Tick
}

// Manager is the COSMIC instance guarding one coprocessor.
type Manager struct {
	eng    *sim.Engine
	dev    *phi.Device
	queue  []*request
	admitQ []*admitReq
	// admitted holds the live admitted processes in admission order.
	// It was a pointer-keyed map (philint:mapiter's live instance); the
	// only iteration was an order-insensitive integer sum, but a slice
	// keeps every present and future traversal deterministic by
	// construction instead of by adjudication.
	admitted []*phi.Process
	stats    Stats

	// reqFree recycles request structs: one is taken per Offload and
	// returned (zeroed) the moment it leaves the system — when its
	// dispatched offload's end notification fires, or when it is aborted
	// because its owner died while queued — so a long run allocates only as
	// many requests as its peak number of offloads in the system.
	// pumpScratch is pump's double buffer:
	// the surviving queue is rebuilt into it and the buffers swap roles, so
	// the rebuild allocates nothing.
	reqFree     []*request
	pumpScratch []*request

	// Bypass enables first-fit scanning of the wait queue: narrow offloads
	// may overtake a blocked wide one. Default false (strict arrival
	// order); see the package comment.
	Bypass bool

	// Observability (SetObserver); nil handles no-op when disabled.
	obs           *obs.Observer
	obsQDepth     *obs.Gauge
	obsAdmitDepth *obs.Gauge
	obsDispatched *obs.Counter
	obsWaited     *obs.Counter
	obsKills      *obs.Counter
	obsBlocked    *obs.Counter
	obsHolWait    *obs.Histogram
	obsAdmitWait  *obs.Histogram
}

// New wraps dev with a COSMIC manager and enables affinitized core
// accounting on it.
func New(eng *sim.Engine, dev *phi.Device) *Manager {
	dev.Affinitized = true
	return &Manager{eng: eng, dev: dev}
}

// SetObserver attaches the observability layer; series are labelled with
// the managed device's ID. A nil observer disables instrumentation.
func (m *Manager) SetObserver(o *obs.Observer) {
	m.obs = o
	dev := m.dev.ID
	m.obsQDepth = o.Gauge("cosmic_offload_queue_depth", "device", dev)
	m.obsAdmitDepth = o.Gauge("cosmic_admit_queue_depth", "device", dev)
	m.obsDispatched = o.Counter("cosmic_offloads_dispatched_total", "device", dev)
	m.obsWaited = o.Counter("cosmic_offloads_waited_total", "device", dev)
	m.obsKills = o.Counter("cosmic_container_kills_total", "device", dev)
	m.obsBlocked = o.Counter("cosmic_admissions_blocked_total", "device", dev)
	waitBounds := []float64{0.5, 1, 2, 5, 10, 30, 60, 120, 300}
	m.obsHolWait = o.Histogram("cosmic_offload_wait_seconds", waitBounds, "device", dev)
	m.obsAdmitWait = o.Histogram("cosmic_admit_wait_seconds", waitBounds, "device", dev)
}

// noteDepth refreshes the queue-depth gauges; called wherever either queue
// mutates.
func (m *Manager) noteDepth() {
	m.obsQDepth.Set(float64(len(m.queue)))
	m.obsAdmitDepth.Set(float64(len(m.admitQ)))
}

// Stats returns activity counters.
//
//philint:ignore deadapi test hook: condor's TestRandomPackBlocksAtNodeOnMemory reads the admission counters
func (m *Manager) Stats() Stats { return m.stats }

// QueueLen is the number of offloads waiting for thread capacity.
func (m *Manager) QueueLen() int { return len(m.queue) }

// Attach admits a job to the device under a memory container, bypassing
// memory admission (for callers that have already reserved capacity, and
// for tests). If the job's committed memory already exceeds its declared
// limit at admission, it is killed immediately (the process is returned
// dead, with the kill notification delivered asynchronously).
func (m *Manager) Attach(j *job.Job) *phi.Process {
	p := m.dev.Attach(j)
	m.admitted = append(m.admitted, p)
	m.noteAdmitted()
	m.enforceContainer(p, p.Usage())
	return p
}

// Admit requests node-level memory admission for j: ready.Admitted is
// called (with the attached process) once the job's declared memory fits
// alongside the already-admitted jobs' declared memory. Jobs that fit
// immediately are admitted synchronously; others wait in arrival order.
func (m *Manager) Admit(j *job.Job, ready interface{ Admitted(*phi.Process) }) {
	if j.Mem > m.dev.Config().Memory {
		// The declared limit exceeds physical device memory: the container
		// cannot be created at all. Fail the job immediately rather than
		// let it wait for capacity that can never exist. The reject must not
		// attach first — even a transient commit of the doomed job's memory
		// could push the device over and OOM-kill an innocent co-resident.
		m.stats.ContainerKills++
		m.obsKills.Inc()
		if m.obs != nil {
			m.obs.Emit(m.eng.Now(), obs.LayerCosmic, "container_kill",
				obs.Str("device", m.dev.ID), obs.Int("job", j.ID),
				obs.Int("declared_mb", j.Mem), obs.Int("device_mb", m.dev.Config().Memory))
		}
		ready.Admitted(m.dev.FailAttach(j, phi.KillContainer))
		return
	}
	if len(m.admitQ) == 0 && j.Mem <= m.DeclaredFree() {
		ready.Admitted(m.Attach(j))
		return
	}
	m.stats.AdmissionsBlocked++
	m.obsBlocked.Inc()
	m.admitQ = append(m.admitQ, &admitReq{j: j, ready: ready, arrived: m.eng.Now()})
	if m.obs != nil {
		m.obs.Emit(m.eng.Now(), obs.LayerCosmic, "admit_blocked",
			obs.Str("device", m.dev.ID), obs.Int("job", j.ID),
			obs.Int("declared_mb", j.Mem), obs.Int("declared_free_mb", m.DeclaredFree()),
			obs.Int("admit_queue", len(m.admitQ)))
	}
	m.noteDepth()
}

// DeclaredFree is the device memory not reserved by admitted live jobs.
func (m *Manager) DeclaredFree() units.MB {
	free := m.dev.Config().Memory
	live := m.admitted[:0]
	for _, p := range m.admitted {
		if !p.Alive() {
			continue // purge: process died outside our paths
		}
		live = append(live, p)
		free -= p.Job.Mem
	}
	// Clear the purged tail so dead processes do not leak through the
	// shared backing array.
	for i := len(live); i < len(m.admitted); i++ {
		m.admitted[i] = nil
	}
	m.admitted = live
	return free
}

// AdmitQueueLen is the number of jobs waiting for memory admission.
func (m *Manager) AdmitQueueLen() int { return len(m.admitQ) }

func (m *Manager) noteAdmitted() {
	if n := len(m.admitted); n > m.stats.MaxAdmitted {
		m.stats.MaxAdmitted = n
	}
}

// dropAdmitted removes p from the admitted list, preserving the order of
// the remaining processes.
func (m *Manager) dropAdmitted(p *phi.Process) {
	for i, q := range m.admitted {
		if q == p {
			copy(m.admitted[i:], m.admitted[i+1:])
			m.admitted[len(m.admitted)-1] = nil // release the vacated tail slot
			m.admitted = m.admitted[:len(m.admitted)-1]
			return
		}
	}
}

// pumpAdmits admits waiting jobs in arrival order while memory lasts.
func (m *Manager) pumpAdmits() {
	for len(m.admitQ) > 0 {
		head := m.admitQ[0]
		if head.j.Mem > m.DeclaredFree() {
			return
		}
		m.admitQ = m.admitQ[1:]
		wait := m.eng.Now() - head.arrived
		m.stats.TotalAdmitWait += wait
		m.obsAdmitWait.Observe(wait.Seconds())
		if m.obs != nil {
			m.obs.Emit(m.eng.Now(), obs.LayerCosmic, "admitted",
				obs.Str("device", m.dev.ID), obs.Int("job", head.j.ID),
				obs.Int("wait_ms", wait))
		}
		m.noteDepth()
		head.ready.Admitted(m.Attach(head.j))
	}
}

// Detach releases a job's process and any queued offloads, and re-runs
// memory admission with the freed capacity.
func (m *Manager) Detach(p *phi.Process) {
	m.dev.Detach(p)
	m.dropAdmitted(p)
	// Dead-process requests are dropped lazily by pump, but flushing now
	// frees capacity bookkeeping sooner.
	m.pump()
	m.pumpAdmits()
}

// Recover re-runs dispatch and memory admission after an externally caused
// process death (a whole-device failure or an injected offload fault). The
// host-side runner only detaches on successful completion, so without this
// nudge the capacity freed by a mass kill stays stranded until the next
// natural completion — possibly forever, if the kill emptied the device.
func (m *Manager) Recover() {
	m.pump()
	m.pumpAdmits()
}

// Offload submits an offload for p. It dispatches immediately when the
// device has enough free hardware threads; otherwise it queues. Exactly one
// event then calls h.Fire(tag|outcome), as phi.Device.StartOffload does:
// OffloadCompleted on success, OffloadAborted if the process dies first.
//
// An offload wider than the device's hardware thread count can never be
// scheduled without oversubscription and indicates a workload/device
// mismatch; it panics.
func (m *Manager) Offload(p *phi.Process, threads units.Threads, work units.Tick, h sim.Handler, tag uint64) {
	if threads > m.dev.Config().HWThreads() {
		panic(fmt.Sprintf("cosmic: offload of %v exceeds device hardware threads %v",
			threads, m.dev.Config().HWThreads()))
	}
	if !p.Alive() {
		m.abort(h, tag)
		return
	}
	// The offload is about to commit the job's peak memory; the container
	// check belongs here, before the device would commit it. A job whose
	// user underestimated memory therefore dies at its first offload — the
	// container catching the oversized allocation — not at submission.
	if !m.enforceContainer(p, p.Job.ActualPeakMem) {
		m.abort(h, tag)
		return
	}
	req := m.newRequest()
	*req = request{m: m, proc: p, threads: threads, work: work, h: h, tag: tag, enqueued: m.eng.Now()}
	m.queue = append(m.queue, req)
	m.pump()
	// Record queue depth only after the pump: an offload that dispatches
	// immediately on an idle device never waited, so it must not count
	// toward the peak.
	if len(m.queue) > m.stats.MaxQueueLen {
		m.stats.MaxQueueLen = len(m.queue)
	}
	if !dispatched(req, m.queue) {
		req.waited = true
		m.stats.OffloadsQueued++
		m.obsWaited.Inc()
		if m.obs != nil {
			m.obs.Emit(m.eng.Now(), obs.LayerCosmic, "offload_waited",
				obs.Str("device", m.dev.ID), obs.Int("job", p.Job.ID),
				obs.Int("threads", threads), obs.Int("queue", len(m.queue)))
		}
	}
}

// abort schedules an OffloadAborted notification for an offload that never
// reached the device. Unlike a dispatched offload's end, it re-runs neither
// dispatch nor admission.
func (m *Manager) abort(h sim.Handler, tag uint64) {
	m.eng.AtH(m.eng.Now(), h, tag|uint64(phi.OffloadAborted))
}

func dispatched(req *request, queue []*request) bool {
	for _, q := range queue {
		if q == req {
			return false
		}
	}
	return true
}

// newRequest takes a request from the free list, or allocates one.
func (m *Manager) newRequest() *request {
	if n := len(m.reqFree); n > 0 {
		req := m.reqFree[n-1]
		m.reqFree[n-1] = nil
		m.reqFree = m.reqFree[:n-1]
		return req
	}
	return &request{}
}

// freeRequest zeroes req (dropping its proc/handler references) and returns
// it to the free list. Callers must have captured anything they still need;
// Offload's dispatched check compares only the pointer, which stays valid
// because pump takes no request from the list.
func (m *Manager) freeRequest(req *request) {
	*req = request{}
	m.reqFree = append(m.reqFree, req)
}

// enforceContainer kills p if committing wouldCommit MB would exceed the
// job's declared limit — COSMIC's Linux-container memory cap tripping on
// the allocation. Returns false if the process was (or already is) dead.
func (m *Manager) enforceContainer(p *phi.Process, wouldCommit units.MB) bool {
	if !p.Alive() {
		return false
	}
	if wouldCommit > p.Job.Mem {
		m.stats.ContainerKills++
		m.obsKills.Inc()
		if m.obs != nil {
			m.obs.Emit(m.eng.Now(), obs.LayerCosmic, "container_kill",
				obs.Str("device", m.dev.ID), obs.Int("job", p.Job.ID),
				obs.Int("declared_mb", p.Job.Mem), obs.Int("would_commit_mb", wouldCommit))
		}
		m.dev.Kill(p, phi.KillContainer)
		m.dropAdmitted(p)
		m.pump()
		m.pumpAdmits()
		return false
	}
	return true
}

// pump dispatches queued offloads while capacity lasts, in arrival order
// (or first-fit when Bypass is set). Requests whose owner died are dropped
// wherever they sit — they consume no threads.
func (m *Manager) pump() {
	free := m.dev.FreeHWThreads()
	remaining := m.pumpScratch[:0]
	blocked := false
	for _, req := range m.queue {
		switch {
		case !req.proc.Alive():
			// Owner died while queued: abort its offload.
			m.abort(req.h, req.tag)
			m.freeRequest(req)
		case (!blocked || m.Bypass) && req.threads <= free:
			free -= req.threads
			m.dispatch(req)
		default:
			blocked = true
			remaining = append(remaining, req)
		}
	}
	// Swap buffers: the old queue (its surviving entries now in remaining)
	// becomes the next pump's scratch.
	m.pumpScratch = m.queue[:0]
	m.queue = remaining
	m.noteDepth()
}

func (m *Manager) dispatch(req *request) {
	m.stats.OffloadsDispatched++
	wait := m.eng.Now() - req.enqueued
	m.stats.TotalQueueWait += wait
	m.obsDispatched.Inc()
	m.obsHolWait.Observe(wait.Seconds())
	if m.obs != nil && req.waited {
		m.obs.Emit(m.eng.Now(), obs.LayerCosmic, "offload_dispatched",
			obs.Str("device", m.dev.ID), obs.Int("job", req.proc.Job.ID),
			obs.Int("threads", req.threads), obs.Int("wait_ms", wait))
	}
	m.dev.StartOffload(req.proc, req.threads, req.work, req, 0)
}

// Fire is the dispatched offload's end notification from the device.
func (req *request) Fire(tag uint64) {
	m, h, ownerTag := req.m, req.h, req.tag
	m.freeRequest(req)
	h.Fire(ownerTag | uint64(phi.OutcomeOf(tag)))
	// Completion frees threads: try to dispatch waiters. Re-running memory
	// admission here also recovers capacity stranded by any process death
	// that bypassed Detach (e.g. a device OOM kill).
	m.pump()
	m.pumpAdmits()
}
