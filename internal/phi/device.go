// Package phi simulates Intel Xeon Phi coprocessor devices at the level of
// detail the paper's schedulers observe: hardware threads, cores, device
// memory, COI processes and offload execution (paper §II).
//
// The device reproduces raw MPSS semantics: any host process can attach a
// COI process and launch offloads at any time, with *no* admission control.
// Consequences of oversubscription are modeled after the COSMIC paper [6],
// which this paper cites for its motivation numbers:
//
//   - Thread oversubscription: all running offloads slow down. The model is
//     processor sharing over the effective core capacity — with the default
//     (non-affinitized) thread placement, overlapping offloads contend for
//     the same low-numbered cores while other cores sit idle, so capacity
//     is the *widest single offload's* core footprint. [6] reports up to
//     ~800% degradation; that emerges here when many offloads overlap.
//
//   - Memory oversubscription: when the total *actual* (committed) memory
//     of resident processes exceeds device memory, an OOM killer terminates
//     randomly chosen processes until the rest fit — the arbitrary crash
//     behaviour of §II-C. Committed memory grows over a process's life
//     (small at attach, full at first offload), reproducing the "two jobs
//     fit now but crash later as their stacks grow" hazard.
//
// COSMIC-managed behaviour (offload serialization so thread oversubscription
// never happens, core affinitization, per-job memory containers) is layered
// on top by package cosmic; enabling it flips the device to affinitized
// accounting, where concurrent offloads occupy disjoint cores.
package phi

import (
	"fmt"
	"math"

	"phishare/internal/job"
	"phishare/internal/obs"
	"phishare/internal/rng"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// Config describes a Xeon Phi model. The paper's cluster uses 5110P-class
// cards: 60 cores, 4 hardware threads per core, 8 GB device memory.
type Config struct {
	Cores          int
	ThreadsPerCore int
	Memory         units.MB
	// SpinContention models resident-set thread oversubscription: each COI
	// process's OpenMP worker pool persists after its first offload and
	// spins between offloads (Intel's KMP_BLOCKTIME behaviour), so when the
	// *combined declared threads of warm resident processes* exceed the
	// hardware threads, running offloads context-switch against spinning
	// workers. Offload speed is divided by
	//
	//	1 + SpinContention · max(0, warmThreads/HWThreads − 1).
	//
	// This is the §II-C / [6] degradation regime that makes the paper's
	// thread-bounded knapsack packing matter: a device packed with jobs
	// totaling ≤ 240 threads pays nothing, an arbitrarily packed one pays
	// proportionally to its oversubscription. Zero disables the effect
	// (useful for exact-timing unit tests).
	SpinContention float64
}

// DefaultSpinContention is the calibrated coefficient of the resident-set
// contention model; at 4 co-resident full-width jobs (4×240 threads) it
// yields a ~2x slowdown, the middle of the degradation range [6] reports.
const DefaultSpinContention = 0.35

// DefaultConfig is the 5110P used throughout the paper's evaluation,
// including the default contention model.
func DefaultConfig() Config {
	return Config{Cores: 60, ThreadsPerCore: 4, Memory: units.GB(8), SpinContention: DefaultSpinContention}
}

// HWThreads is the device's hardware thread count (240 on the 5110P).
func (c Config) HWThreads() units.Threads {
	return units.Threads(c.Cores * c.ThreadsPerCore)
}

func (c Config) validate() error {
	if c.Cores <= 0 || c.ThreadsPerCore <= 0 || c.Memory <= 0 || c.SpinContention < 0 {
		return fmt.Errorf("phi: invalid config %+v", c)
	}
	return nil
}

// UtilSink receives busy-core samples; metrics.CoreUtilization implements
// it. A nil sink disables sampling.
type UtilSink interface {
	// Record notes that from now on the device keeps busyCores cores busy.
	Record(now units.Tick, busyCores int)
}

// OffloadOutcome reports how an offload ended.
type OffloadOutcome int

const (
	// OffloadCompleted means the kernel ran to completion.
	OffloadCompleted OffloadOutcome = iota
	// OffloadAborted means the owning process was killed mid-offload.
	OffloadAborted
)

// outcomeMask is the tag bit an offload's end notification carries its
// outcome in. The rest of the tag is the caller's, which must leave this
// bit clear.
const outcomeMask = 1

// OutcomeOf decodes the outcome from the tag an offload's end notification
// fires with (see StartOffload).
func OutcomeOf(tag uint64) OffloadOutcome { return OffloadOutcome(tag & outcomeMask) }

// KillReason explains a process termination.
type KillReason int

const (
	// KillOOM: the device OOM killer chose this process.
	KillOOM KillReason = iota
	// KillContainer: COSMIC's memory container caught the process
	// exceeding its declared limit.
	KillContainer
	// KillDetach: the owner detached the process.
	KillDetach
	// KillDeviceFailure: the whole device failed (card reset, node loss);
	// every resident process dies. Injected by the fault layer
	// (internal/faults).
	KillDeviceFailure
	// KillOffloadFault: a transient offload failure (COI transport error,
	// kernel fault) took the process down mid-run. Injected by the fault
	// layer.
	KillOffloadFault
)

func (k KillReason) String() string {
	switch k {
	case KillOOM:
		return "oom"
	case KillContainer:
		return "container"
	case KillDetach:
		return "detach"
	case KillDeviceFailure:
		return "device-failure"
	case KillOffloadFault:
		return "offload-fault"
	}
	return fmt.Sprintf("KillReason(%d)", int(k))
}

// Process is the device-side COI process created for each host job that
// offloads to this device (§II-B).
type Process struct {
	Job *job.Job

	dev   *Device
	alive bool
	usage units.MB // committed device memory right now
	warm  bool     // OpenMP worker pool created (first offload ran)

	off *offload // in-flight offload, nil if the job is in a host phase

	// OnKill, if set, receives the notification when the device (or a
	// manager) kills the process: OnKill.Fire(uint64(reason)). The
	// in-flight offload, if any, is aborted first.
	OnKill sim.Handler
}

// killNote is a Process in its role as the handler of its own deferred
// kill notification, whose tag is the KillReason; it forwards to OnKill.
type killNote Process

func (k *killNote) Fire(reason uint64) {
	if h := k.OnKill; h != nil {
		h.Fire(reason)
	}
}

// Alive reports whether the process still exists on the device.
func (p *Process) Alive() bool { return p.alive }

// Usage returns the process's committed device memory.
func (p *Process) Usage() units.MB { return p.usage }

// offload is one in-flight kernel execution.
type offload struct {
	proc      *Process
	threads   units.Threads
	remaining float64 // work remaining, in ticks at full speed
	// h and tag receive the end notification (see StartOffload).
	h   sim.Handler
	tag uint64
}

// Stats aggregates device activity counters.
type Stats struct {
	OffloadsStarted   int
	OffloadsCompleted int
	OffloadsAborted   int
	ProcessesAttached int
	OOMKills          int
	// Failures counts whole-device failures (Fail); AttachRejects counts
	// processes that were dead on arrival because the attach was rejected
	// (device down, or an impossible container) without committing memory.
	Failures      int
	AttachRejects int
}

// Device is one simulated coprocessor.
type Device struct {
	ID  string
	cfg Config

	eng  *sim.Engine
	rand *rng.Source
	sink UtilSink

	// Affinitized selects COSMIC-style core accounting: concurrent offloads
	// occupy disjoint cores (package cosmic sets this). Without it, default
	// MPSS placement overlaps offloads on the same cores.
	Affinitized bool

	procs    map[*Process]bool
	offloads []*offload
	// down marks a failed device (Fail/Repair): attaches are rejected dead
	// on arrival until the repair lands.
	down bool
	// warmThreads is the combined declared thread count of processes whose
	// worker pools exist (see Config.SpinContention).
	warmThreads units.Threads

	lastAdvance units.Tick
	// timerGen cancels completion ticks by generation: replan bumps it and
	// schedules a pooled event whose tag is the new value; a fired tick
	// whose generation is stale was superseded and does nothing. A stale
	// tick stays queued until its instant, so it still counts in
	// Engine.Pending and Engine.Steps; a sim.Timer's Stop would remove it,
	// which would change both (obs.Sampler re-arms on Pending).
	timerGen uint64
	lastBusy int

	// Completion-tick scratch (onCompletionTick fires once per offload
	// completion; these keep the partition of d.offloads allocation-free).
	finishedScratch []*offload
	stillScratch    []*offload
	// offFree recycles offload records: a steady-state device allocates
	// nothing per offload. The struct is recycled the moment its end is
	// decided; the deferred end notification carries the owner's handler
	// and tag, never the record.
	offFree []*offload

	stats Stats

	// Observability (SetObserver); nil handles no-op when disabled.
	obs         *obs.Observer
	obsOOM      *obs.Counter
	obsStarted  *obs.Counter
	obsComplete *obs.Counter
	obsAborted  *obs.Counter
	obsSpeed    *obs.Histogram
}

// NewDevice creates a device. rand drives OOM victim selection; a nil sink
// disables utilization sampling.
func NewDevice(eng *sim.Engine, id string, cfg Config, rand *rng.Source, sink UtilSink) *Device {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	if rand == nil {
		rand = rng.New(1)
	}
	d := &Device{
		ID:    id,
		cfg:   cfg,
		eng:   eng,
		rand:  rand,
		sink:  sink,
		procs: map[*Process]bool{},
	}
	return d
}

// Config returns the device model.
func (d *Device) Config() Config { return d.cfg }

// SetObserver attaches the observability layer; series are labelled with
// the device ID. A nil observer disables instrumentation.
func (d *Device) SetObserver(o *obs.Observer) {
	d.obs = o
	d.obsOOM = o.Counter("phi_oom_kills_total", "device", d.ID)
	d.obsStarted = o.Counter("phi_offloads_started_total", "device", d.ID)
	d.obsComplete = o.Counter("phi_offloads_completed_total", "device", d.ID)
	d.obsAborted = o.Counter("phi_offloads_aborted_total", "device", d.ID)
	d.obsSpeed = o.Histogram("phi_speed_factor",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1}, "device", d.ID)
}

// Speed exposes the current processor-sharing rate (see speed) for
// samplers and monitoring probes.
func (d *Device) Speed() float64 { return d.speed() }

// Stats returns activity counters.
//
//philint:ignore deadapi test hook: condor's TestRandomPackBlocksAtNodeOnMemory and runner's TestTransferVictimDoesNotContinue read the counters
func (d *Device) Stats() Stats { return d.stats }

// ProcessCount is the number of live COI processes.
//
//philint:ignore deadapi test hook: the root TestSafetyInvariantsAcrossSeeds and runner's and cluster's tests check processes are released
func (d *Device) ProcessCount() int { return len(d.procs) }

// RunningThreads is the total hardware-thread demand of in-flight offloads.
func (d *Device) RunningThreads() units.Threads {
	var t units.Threads
	for _, o := range d.offloads {
		t += o.threads
	}
	return t
}

// CommittedMemory is the total actual memory committed by live processes.
func (d *Device) CommittedMemory() units.MB {
	var m units.MB
	for p := range d.procs {
		m += p.usage
	}
	return m
}

// Attach creates a COI process for j. Like real MPSS, it performs no
// admission control: memory pressure materializes later, via the OOM model.
// The initial commitment is a fraction of the job's eventual peak —
// Linux does not commit memory at allocation (§II-C). Attaching to a failed
// device (Fail) yields a dead-on-arrival process.
func (d *Device) Attach(j *job.Job) *Process {
	if d.down {
		return d.FailAttach(j, KillDeviceFailure)
	}
	p := &Process{
		Job:   j,
		dev:   d,
		alive: true,
		usage: units.MB(float64(j.ActualPeakMem) * 0.3),
	}
	d.procs[p] = true
	d.stats.ProcessesAttached++
	d.checkOOM()
	return p
}

// FailAttach rejects an attach: it returns a process that is dead on
// arrival, with the kill notification delivered asynchronously like any
// other kill. No memory is ever committed, so no co-resident process can be
// disturbed — COSMIC uses this for containers that cannot be created at all
// (declared limit above physical device memory), and Attach uses it while
// the device is down.
func (d *Device) FailAttach(j *job.Job, reason KillReason) *Process {
	p := &Process{Job: j, dev: d}
	d.stats.AttachRejects++
	d.eng.AfterH(0, (*killNote)(p), uint64(reason))
	return p
}

// Fail marks the device failed: every resident process is killed with
// reason (in deterministic job-ID order), and subsequent attaches are
// rejected dead on arrival until Repair. Models a card reset or the card's
// share of a node loss — §II-C's crash behaviour writ large. Returns the
// number of processes evicted. Failing an already-down device only re-kills
// whatever attached meanwhile (normally nothing).
func (d *Device) Fail(reason KillReason) int {
	d.down = true
	d.stats.Failures++
	victims := make([]*Process, 0, len(d.procs))
	for p := range d.procs {
		victims = append(victims, p)
	}
	sortProcs(victims)
	for _, p := range victims {
		d.terminate(p, reason)
	}
	return len(victims)
}

// Repair brings a failed device back: attaches succeed again. State is
// empty by construction (Fail killed everything; attaches while down never
// landed).
func (d *Device) Repair() { d.down = false }

// Down reports whether the device is failed (between Fail and Repair).
func (d *Device) Down() bool { return d.down }

// RunningProcs returns the owners of in-flight offloads, in offload start
// order (deterministic). The fault layer draws transient-offload-failure
// victims from it.
func (d *Device) RunningProcs() []*Process {
	ps := make([]*Process, len(d.offloads))
	for i, o := range d.offloads {
		ps[i] = o.proc
	}
	return ps
}

// Detach removes the process, releasing its memory. An in-flight offload is
// aborted. Detaching a dead process is a no-op.
func (d *Device) Detach(p *Process) {
	if !p.alive {
		return
	}
	d.terminate(p, KillDetach)
}

// Kill terminates the process for the given reason (used by COSMIC's
// memory containers).
func (d *Device) Kill(p *Process, reason KillReason) {
	if !p.alive {
		return
	}
	d.terminate(p, reason)
}

func (d *Device) terminate(p *Process, reason KillReason) {
	p.alive = false
	delete(d.procs, p)
	if p.warm {
		p.warm = false
		d.warmThreads -= p.Job.Threads
	}
	if p.off != nil {
		d.abortOffload(p.off)
	}
	if reason != KillDetach {
		// Deliver asynchronously so the owner observes a consistent device,
		// and so a kill that happens synchronously inside Attach (OOM on
		// admission) still reaches an OnKill handler installed just after
		// Attach returns.
		d.eng.AfterH(0, (*killNote)(p), uint64(reason))
	}
}

// StartOffload launches a kernel on the device for process p. work is the
// kernel's duration at full speed. When the offload completes or aborts,
// an event at that instant calls h.Fire(tag|outcome); OutcomeOf decodes
// it, and tag must leave the outcome bit clear. Exactly one offload per
// process may be in flight (the COI model: the host process blocks on the
// offload pragma).
//
// Raw MPSS semantics: the offload starts immediately regardless of thread
// pressure. The offload also commits the process's memory to its peak
// (buffers are transferred in), which can trigger the OOM killer — possibly
// killing p itself, in which case the notification carries OffloadAborted.
func (d *Device) StartOffload(p *Process, threads units.Threads, work units.Tick, h sim.Handler, tag uint64) {
	if !p.alive {
		panic("phi: offload from dead process " + p.Job.Name)
	}
	if p.off != nil {
		panic("phi: concurrent offloads from one process " + p.Job.Name)
	}
	if threads <= 0 || work <= 0 {
		panic(fmt.Sprintf("phi: invalid offload threads=%v work=%v", threads, work))
	}
	if tag&outcomeMask != 0 {
		panic(fmt.Sprintf("phi: offload tag %#x uses the outcome bit", tag))
	}
	d.advance()
	if !p.warm {
		// First offload: the process's OpenMP worker pool comes to life and
		// persists (spinning) for the rest of the process's residency.
		p.warm = true
		d.warmThreads += p.Job.Threads
	}
	o := d.allocOffload()
	o.proc, o.threads, o.remaining, o.h, o.tag = p, threads, float64(work), h, tag
	p.off = o
	d.offloads = append(d.offloads, o)
	d.stats.OffloadsStarted++
	d.obsStarted.Inc()
	if d.obs != nil {
		d.obs.Emit(d.eng.Now(), obs.LayerPhi, "offload_start",
			obs.Str("device", d.ID), obs.Int("job", p.Job.ID),
			obs.Int("threads", threads), obs.Int("work_ms", work))
	}

	// Transferring in the offload's buffers commits the process's peak.
	p.usage = p.Job.ActualPeakMem
	d.checkOOM()
	if !p.alive {
		return // OOM killed p itself; the abort already notified h.
	}
	d.replan()
}

// abortOffload removes o from the run queue and notifies its owner.
func (d *Device) abortOffload(o *offload) {
	d.advance()
	for i, x := range d.offloads {
		if x == o {
			d.offloads = append(d.offloads[:i], d.offloads[i+1:]...)
			break
		}
	}
	o.proc.off = nil
	d.stats.OffloadsAborted++
	d.obsAborted.Inc()
	if d.obs != nil {
		d.obs.Emit(d.eng.Now(), obs.LayerPhi, "offload_end",
			obs.Str("device", d.ID), obs.Int("job", o.proc.Job.ID),
			obs.Bool("completed", false))
	}
	d.notify(o, OffloadAborted)
	d.freeOffload(o)
	d.replan()
}

// notify schedules o's end notification at the current instant, so the
// owner observes a device that has finished accounting for the end.
func (d *Device) notify(o *offload, outcome OffloadOutcome) {
	d.eng.AtH(d.eng.Now(), o.h, o.tag|uint64(outcome))
}

func (d *Device) allocOffload() *offload {
	if n := len(d.offFree); n > 0 {
		o := d.offFree[n-1]
		d.offFree[n-1] = nil
		d.offFree = d.offFree[:n-1]
		return o
	}
	return &offload{}
}

// freeOffload clears the record (dropping its Process and handler so they
// can be collected) and returns it to the device's free list.
func (d *Device) freeOffload(o *offload) {
	*o = offload{}
	d.offFree = append(d.offFree, o)
}

// speed returns the current processor-sharing rate in (0, 1]: the ratio of
// effective hardware-thread capacity to running-offload demand (capped at
// 1), divided by the resident-set spin-contention factor (see
// Config.SpinContention).
func (d *Device) speed() float64 {
	demand := 0
	for _, o := range d.offloads {
		demand += int(o.threads)
	}
	if demand == 0 {
		return 1
	}
	capacity := d.busyCores() * d.cfg.ThreadsPerCore
	rate := 1.0
	if capacity < demand {
		rate = float64(capacity) / float64(demand)
	}
	if d.cfg.SpinContention > 0 {
		hw := float64(d.cfg.HWThreads())
		if over := (float64(d.warmThreads) - hw) / hw; over > 0 {
			rate /= 1 + d.cfg.SpinContention*over
		}
	}
	return rate
}

// busyCores returns how many cores the in-flight offloads keep busy.
// Affinitized: disjoint placement, so footprints add. Default MPSS
// placement: every offload's threads start at core 0, so footprints
// overlap and only the widest counts (§IV-D2's motivation for COSMIC's
// affinitization).
func (d *Device) busyCores() int {
	cores := 0
	for _, o := range d.offloads {
		c := o.threads.Cores()
		if d.Affinitized {
			cores += c
		} else if c > cores {
			cores = c
		}
	}
	if cores > d.cfg.Cores {
		cores = d.cfg.Cores
	}
	return cores
}

// advance applies elapsed progress to every in-flight offload.
func (d *Device) advance() {
	now := d.eng.Now()
	elapsed := now - d.lastAdvance
	d.lastAdvance = now
	if elapsed > 0 {
		rate := d.speed()
		for _, o := range d.offloads {
			o.remaining -= float64(elapsed) * rate
		}
	}
	d.sample()
}

func (d *Device) sample() {
	if d.sink == nil {
		return
	}
	busy := d.busyCores()
	if busy != d.lastBusy {
		d.sink.Record(d.eng.Now(), busy)
		d.lastBusy = busy
	}
}

const workEpsilon = 1e-6

// replan schedules the next completion event under the current sharing rate.
func (d *Device) replan() {
	d.timerGen++ // supersede any outstanding completion tick
	d.sample()
	if len(d.offloads) == 0 {
		return
	}
	min := math.Inf(1)
	for _, o := range d.offloads {
		if o.remaining < min {
			min = o.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	rate := d.speed()
	// The slowdown-factor histogram samples the rate at every replan: each
	// offload start/end re-evaluates sharing, so the distribution captures
	// exactly the contention regimes the device passes through.
	d.obsSpeed.Observe(rate)
	dt := units.Tick(math.Ceil(min / rate))
	d.eng.AfterH(dt, (*completionTick)(d), d.timerGen)
}

// completionTick is the device's handler for its completion ticks; the
// tag is the generation replan scheduled the tick under.
type completionTick Device

func (c *completionTick) Fire(gen uint64) {
	if d := (*Device)(c); gen == d.timerGen {
		d.onCompletionTick()
	}
}

// onCompletionTick fires when the earliest offload should be done; it
// completes everything that has run out of work and replans.
func (d *Device) onCompletionTick() {
	d.advance()
	finished := d.finishedScratch[:0]
	still := d.stillScratch[:0]
	for _, o := range d.offloads {
		if o.remaining <= workEpsilon {
			finished = append(finished, o)
		} else {
			still = append(still, o)
		}
	}
	// Swap buffers: the old offload list becomes the next tick's scratch.
	d.stillScratch = d.offloads[:0]
	d.offloads = still
	d.finishedScratch = finished
	for _, o := range finished {
		o.proc.off = nil
		d.stats.OffloadsCompleted++
		d.obsComplete.Inc()
		if d.obs != nil {
			d.obs.Emit(d.eng.Now(), obs.LayerPhi, "offload_end",
				obs.Str("device", d.ID), obs.Int("job", o.proc.Job.ID),
				obs.Bool("completed", true))
		}
		d.notify(o, OffloadCompleted)
		d.freeOffload(o)
	}
	d.replan()
}

// checkOOM models the Linux OOM killer on the card: while committed memory
// exceeds physical memory, a random process dies (§II-C: "randomly
// terminates processes").
func (d *Device) checkOOM() {
	for d.CommittedMemory() > d.cfg.Memory && len(d.procs) > 0 {
		victims := make([]*Process, 0, len(d.procs))
		for p := range d.procs {
			victims = append(victims, p)
		}
		// Deterministic order before the random draw.
		sortProcs(victims)
		victim := victims[d.rand.Intn(len(victims))]
		d.stats.OOMKills++
		d.obsOOM.Inc()
		if d.obs != nil {
			d.obs.Emit(d.eng.Now(), obs.LayerPhi, "oom_kill",
				obs.Str("device", d.ID), obs.Int("job", victim.Job.ID),
				obs.Int("committed_mb", d.CommittedMemory()),
				obs.Int("device_mb", d.cfg.Memory))
		}
		d.terminate(victim, KillOOM)
	}
}

func sortProcs(ps []*Process) {
	// Insertion sort by job ID: n is tiny (resident jobs per device).
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Job.ID < ps[j-1].Job.ID; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// FreeHWThreads is the hardware-thread headroom: total minus in-flight
// demand. Negative when oversubscribed (raw mode only).
func (d *Device) FreeHWThreads() units.Threads {
	return d.cfg.HWThreads() - d.RunningThreads()
}

// Snapshot is a point-in-time view of device state — what the real stack
// exposes through micinfo and the coprocessor's /proc filesystem (§II-B),
// and what monitoring or estimation tooling polls.
type Snapshot struct {
	ID              string
	ResidentJobs    int
	RunningOffloads int
	RunningThreads  units.Threads
	BusyCores       int
	CommittedMemory units.MB
	TotalMemory     units.MB
	WarmThreads     units.Threads
}

// Snapshot captures the current device state.
func (d *Device) Snapshot() Snapshot {
	return Snapshot{
		ID:              d.ID,
		ResidentJobs:    len(d.procs),
		RunningOffloads: len(d.offloads),
		RunningThreads:  d.RunningThreads(),
		BusyCores:       d.busyCores(),
		CommittedMemory: d.CommittedMemory(),
		TotalMemory:     d.cfg.Memory,
		WarmThreads:     d.warmThreads,
	}
}

// String renders the snapshot micinfo-style.
func (s Snapshot) String() string {
	return fmt.Sprintf("%s: jobs=%d offloads=%d threads=%v cores=%d mem=%v/%v warm=%v",
		s.ID, s.ResidentJobs, s.RunningOffloads, s.RunningThreads,
		s.BusyCores, s.CommittedMemory, s.TotalMemory, s.WarmThreads)
}
