// Package core implements the paper's primary contribution: the
// coprocessor-sharing-aware knapsack cluster scheduler ("MCCK" when stacked
// on MPSS + Condor + COSMIC).
//
// The scheduler treats every Xeon Phi as a 0-1 knapsack (capacity: the
// device's free declared memory; item weight: a job's declared memory;
// item value: Eq. 1, v = 1 - (t/240)^2) and packs pending jobs to maximize
// total value — and thereby job concurrency — under the device's thread
// budget (§IV-C). At the cluster level it is greedy: devices are packed one
// after another (Fig. 4), and every completion frees capacity that the next
// cycle re-packs.
//
// Integration follows §IV-D1: the scheduler is an external add-on that
// (1) reads the pending queue and collector state, (2) computes a job→slot
// plan with the greedy per-device knapsack loop of Fig. 4, and (3) rewrites
// each planned job's Requirements to `Name == "<slot>@<node>"` via
// condor_qedit in one batch. The changed requirements trigger the next
// negotiation cycle ("we must wait for Condor's next negotiation cycle
// which is triggered when the Condor collector obtains the changed job
// requirements"); the module's reaction time is modeled as an extra delay
// on every negotiation trigger (condor.ExternalPolicy), which is the small
// integration overhead the paper observes in Fig. 8's high-skew case.
package core

import (
	"fmt"

	"phishare/internal/classad"
	"phishare/internal/condor"
	"phishare/internal/knapsack"
	"phishare/internal/obs"
	"phishare/internal/units"
)

// ValueFunc maps a job's declared threads (and the device's hardware thread
// count) to a scaled integer value. The default is Eq. 1; alternatives
// exist for the value-function ablation.
type ValueFunc func(t, T units.Threads) int64

// Eq1 is the paper's value function, v = 1 - (t/T)^2 (scaled).
func Eq1(t, T units.Threads) int64 { return knapsack.Eq1Value(t, T) }

// Linear is the ablation value v = 1 - t/T (scaled like Eq1).
func Linear(t, T units.Threads) int64 {
	if T <= 0 {
		panic("core: non-positive hardware thread count")
	}
	if t < 0 {
		t = 0
	}
	if t > T {
		t = T
	}
	return int64((1 - float64(t)/float64(T)) * knapsack.Eq1Scale)
}

// Unit is the ablation value that ignores threads entirely (v = 1 for every
// job): packing degenerates to maximizing job count under memory alone.
func Unit(_, _ units.Threads) int64 { return knapsack.Eq1Scale }

// Config tunes the scheduler.
type Config struct {
	// MemGranularity is the knapsack DP's memory quantum (paper: 50 MB).
	MemGranularity units.MB
	// ThreadGranularity is the thread-dimension quantum (default 4, one
	// core's worth).
	ThreadGranularity units.Threads
	// Window bounds how many pending jobs (FIFO prefix) enter one planning
	// round. Besides keeping the DP near-linear per the paper's complexity
	// argument, a moderate window limits how far the value-greedy packing
	// can defer high-thread jobs: an unbounded window drains every
	// low-thread job first and leaves a poorly-overlapping all-wide tail.
	// Default 64.
	Window int
	// Value is the job value function; nil means Eq. 1.
	Value ValueFunc
	// DisableThreadDim drops the thread dimension from the DP (memory-only
	// packing) — the "no thread awareness" ablation.
	DisableThreadDim bool
	// DisableFill skips the fill stage that packs remaining free memory
	// with value-zero jobs once the thread budget is exhausted (§IV-C's
	// "not a hard limit" clause; see Scheduler docs). With the fill
	// disabled, thread-saturated devices take no extra tenants.
	DisableFill bool
	// ReactionDelay is the external module's latency between a collector
	// update and its qedits landing (condor.ExternalPolicy). Default 1 s.
	ReactionDelay units.Tick
	// FillThreadOvercommit bounds the fill stage: the device's total
	// declared resident threads may reach at most this multiple of its
	// hardware threads. Sets beyond the hardware limit carry zero value
	// (§IV-C) but are still worth packing for time-multiplexed sharing
	// (Fig. 2) — up to the point where resident-set contention (see
	// phi.Config.SpinContention) erodes the concurrency gain. Default 2.0:
	// a device accepts up to two full-width jobs' worth of surplus threads.
	FillThreadOvercommit float64
	// ReferenceSolver routes every knapsack through the unoptimized
	// reference DP (knapsack.SolveReference) instead of the scheduler's
	// reusable Solver. It exists purely for determinism validation: the two
	// paths must produce bit-identical plans, which the regression test in
	// internal/experiments asserts by running the full stack both ways.
	ReferenceSolver bool
}

func (c Config) withDefaults() Config {
	if c.MemGranularity == 0 {
		c.MemGranularity = 50
	}
	if c.ThreadGranularity == 0 {
		c.ThreadGranularity = 4
	}
	if c.Window == 0 {
		c.Window = 64
	}
	if c.Value == nil {
		c.Value = Eq1
	}
	if c.ReactionDelay == 0 {
		c.ReactionDelay = units.Second
	}
	if c.FillThreadOvercommit == 0 { //philint:ignore floateq zero-value config sentinel, exact by construction
		c.FillThreadOvercommit = 2.0
	}
	return c
}

// Scheduler is the MCCK condor.Policy.
//
// Planning per device is two-stage:
//
//  1. The 2-D knapsack maximizes (Σ Eq.1 value, job count) under the
//     device's free memory and remaining thread budget. This is the
//     concurrency-maximizing core of §IV-C: sets that would oversubscribe
//     threads are excluded, which is the DP-state equivalent of the paper
//     zeroing their value.
//
//  2. A fill stage packs leftover free memory with as many of the remaining
//     jobs as fit, ignoring threads. The paper notes the thread limit "is
//     not a hard limit" — exceeding it merely zeroes value — and its Fig. 4
//     loop keeps packing freed memory while jobs remain; COSMIC then
//     time-multiplexes the surplus offloads safely (the Fig. 2 case). This
//     stage is what keeps MCCK competitive with MCC's random packing under
//     the high-resource-skew distribution, where every set has value zero.
type Scheduler struct {
	cfg Config
	// solver carries the knapsack DP buffers across every packDevice call
	// of every planning round: the greedy per-device loop of Fig. 4 solves
	// up to two knapsacks per device per negotiation cycle, and reusing one
	// solver makes that inner loop allocation-free.
	solver *knapsack.Solver
	// lastPlanned counts the jobs pinned by the most recent planning round
	// (instrumentation).
	lastPlanned int

	// Planning-round scratch, reused across cycles so steady-state planning
	// is allocation-free: the candidate window, the plan map (cleared per
	// round), and packDevice's item/selection buffers.
	remScratch    []*condor.QueuedJob
	planScratch   map[*condor.QueuedJob]string
	itemScratch   []knapsack.Item
	chosenScratch []bool
	pickedScratch []*condor.QueuedJob
	restItems     []knapsack.Item
	restJobs      []*condor.QueuedJob

	// Observability (SetObserver); nil handles no-op when disabled.
	obs         *obs.Observer
	obsRounds   *obs.Counter
	obsPlanned  *obs.Counter
	obsDeferred *obs.Counter
	obsDP       *obs.Counter
	obsFast     *obs.Counter
}

// New returns an MCCK scheduler.
func New(cfg Config) *Scheduler {
	return &Scheduler{cfg: cfg.withDefaults(), solver: knapsack.NewSolver(),
		planScratch: map[*condor.QueuedJob]string{}}
}

// SetObserver attaches the observability layer and resolves the scheduler's
// instrument handles. A nil observer disables instrumentation.
func (s *Scheduler) SetObserver(o *obs.Observer) {
	s.obs = o
	s.obsRounds = o.Counter("core_plan_rounds_total")
	s.obsPlanned = o.Counter("core_jobs_planned_total")
	s.obsDeferred = o.Counter("core_jobs_deferred_total")
	s.obsDP = o.Counter("core_knapsack_dp_solves_total")
	s.obsFast = o.Counter("core_knapsack_fastpath_solves_total")
}

// solve dispatches one knapsack instance to the reusable solver, or to the
// reference DP when the determinism harness asks for it, and counts it
// against the DP or fast-path series. It reports whether the solver's fast
// path answered.
func (s *Scheduler) solve(cfg knapsack.Config, items []knapsack.Item) (knapsack.Result, bool) {
	if s.cfg.ReferenceSolver {
		s.obsDP.Inc()
		return knapsack.SolveReference(cfg, items), false
	}
	res := s.solver.Solve(cfg, items)
	fast := s.solver.TookFastPath()
	if fast {
		s.obsFast.Inc()
	} else {
		s.obsDP.Inc()
	}
	return res, fast
}

// Name implements condor.Policy.
func (*Scheduler) Name() string { return "MCCK" }

// ExtraDelay implements condor.ExternalPolicy: the add-on module's
// reaction time between collector updates and its batched qedits.
func (s *Scheduler) ExtraDelay() units.Tick { return s.cfg.ReactionDelay }

// MachineRequirements implements condor.Policy: same node-side memory guard
// as MCC — the knapsack plan already respects it, but a stale plan (capacity
// consumed since planning) must be rejected by the machine rather than
// oversubscribe declared memory.
func (*Scheduler) MachineRequirements() string {
	return "TARGET." + condor.AttrRequestPhiMemory + " <= MY." + condor.AttrPhiFreeMemory
}

// PrepareJobAd implements condor.Policy: jobs are unmatchable until the
// external scheduler pins them.
func (*Scheduler) PrepareJobAd(q *condor.QueuedJob) {
	q.SetRequirements("false")
}

// PreNegotiation implements condor.Policy: compute the plan with the greedy
// per-device knapsack loop of Fig. 4 and apply it as one batch of qedits
// (§IV-D1: "we submit the edited job requirements in a batch"), so the
// cycle that was triggered by the collector update dispatches the plan.
func (s *Scheduler) PreNegotiation(p *condor.Pool) {
	plan := s.computePlan(p)
	s.lastPlanned = len(plan)
	if len(plan) == 0 {
		return
	}
	for _, q := range p.Pending() {
		if slot, ok := plan[q]; ok {
			p.Qedit(q, pinExpr(slot))
		} else if pinned(q) {
			// Previously pinned but no longer planned (its slot filled up
			// or a better mix exists): unpin so it cannot land stale.
			p.Qedit(q, "false")
		}
	}
}

// pinned reports whether q's Requirements is anything but the unplanned
// "false". The scheduler installs only "false" and pin expressions, which
// evaluate to undefined without a target, so the source condor remembers
// decides it; the ad is evaluated only if something else rewrote it since.
func pinned(q *condor.QueuedJob) bool {
	if req, ok := q.InstalledRequirements(); ok {
		return req != "false"
	}
	return q.Ad.Eval(classad.RequirementsAttr).String() != "false"
}

// pinExpr builds the §IV-D1 requirement rewrite:
// Name == "<slotId>@<NodeName>".
func pinExpr(slot string) string {
	return fmt.Sprintf("TARGET.%s == %q", condor.AttrName, slot)
}

// Select implements condor.Policy: a pinned job matches exactly its
// designated slot; take it.
func (*Scheduler) Select(_ *condor.Pool, _ *condor.QueuedJob, _ []*condor.Machine) int { return 0 }

// SelectN implements condor.IndexSelector: Select reads no candidate.
func (*Scheduler) SelectN(int) int { return 0 }

// PostNegotiation implements condor.Policy (no-op; planning happens in
// PreNegotiation so qedits land in the cycle that follows the triggering
// collector update).
func (*Scheduler) PostNegotiation(*condor.Pool) {}

// computePlan runs the greedy per-device knapsack loop of Fig. 4 over the
// pending queue and the machines' free capacity.
func (s *Scheduler) computePlan(p *condor.Pool) map[*condor.QueuedJob]string {
	pending := p.Pending()
	if len(pending) == 0 {
		return nil
	}
	window := pending
	if len(window) > s.cfg.Window {
		window = window[:s.cfg.Window]
	}
	remaining := append(s.remScratch[:0], window...)
	s.remScratch = remaining

	clear(s.planScratch)
	plan := s.planScratch
	for _, m := range p.Machines() {
		if len(remaining) == 0 {
			break
		}
		picked := s.packDevice(p, m, remaining)
		if len(picked) == 0 {
			continue
		}
		for _, q := range picked {
			plan[q] = m.Name
		}
		// In-place filter: drop the jobs this device took (picked is always a
		// subset of remaining, so a plan lookup identifies them).
		rest := remaining[:0]
		for _, q := range remaining {
			if _, ok := plan[q]; !ok {
				rest = append(rest, q)
			}
		}
		remaining = rest
	}
	s.obsRounds.Inc()
	s.obsPlanned.Add(int64(len(plan)))
	s.obsDeferred.Add(int64(len(window) - len(plan)))
	if s.obs != nil {
		s.obs.Emit(p.Now(), obs.LayerCore, "plan_round",
			obs.F("pending", len(pending)),
			obs.F("window", len(window)),
			obs.F("planned", len(plan)),
			obs.F("deferred", len(window)-len(plan)))
	}
	return plan
}

// packDevice packs one device's knapsack from the candidate jobs.

func (s *Scheduler) packDevice(p *condor.Pool, m *condor.Machine, candidates []*condor.QueuedJob) []*condor.QueuedJob {
	if m.Offline {
		// A lost node must not receive plan pins: the pinned jobs would sit
		// unmatchable until it comes back (the negotiator skips it too).
		return nil
	}
	memBudget := m.FreeMem
	slotBudget := m.FreeSlots()
	if memBudget <= 0 || slotBudget <= 0 {
		return nil
	}
	hw := units.Threads(m.Unit.Device.Config().HWThreads())
	threadBudget := hw - m.ResidentThreads
	if threadBudget < 0 {
		threadBudget = 0
	}

	scale := knapsack.CountBonusScale(len(candidates))
	items := s.itemScratch[:0]
	for _, q := range candidates {
		items = append(items, knapsack.Item{
			Mem:     q.Job.Mem,
			Threads: q.Job.Threads,
			Value:   s.cfg.Value(q.Job.Threads, hw)*scale + 1,
		})
	}
	s.itemScratch = items

	picked := s.pickedScratch[:0]
	if cap(s.chosenScratch) < len(candidates) {
		s.chosenScratch = make([]bool, len(candidates))
	}
	chosen := s.chosenScratch[:len(candidates)]
	for i := range chosen {
		chosen[i] = false
	}
	var stage1Value int64
	stage1Fast := false

	// Stage 1: the concurrency-maximizing 2-D knapsack.
	if threadBudget > 0 || s.cfg.DisableThreadDim {
		cfg := knapsack.Config{
			MemCapacity:       memBudget,
			MemGranularity:    s.cfg.MemGranularity,
			ThreadGranularity: s.cfg.ThreadGranularity,
		}
		if !s.cfg.DisableThreadDim {
			cfg.ThreadCapacity = threadBudget
		}
		res, fast := s.solve(cfg, items)
		stage1Value = res.Value
		stage1Fast = fast
		for _, idx := range res.Selected {
			chosen[idx] = true
			picked = append(picked, candidates[idx])
		}
		memBudget -= res.Mem
	}
	stage1Count := len(picked)

	// Stage 2: fill remaining memory with leftover jobs using the paper's
	// 1-D memory knapsack (Eq. 1 values, count tie-break). Thread pressure
	// beyond the hardware limit carries no value but is safe — COSMIC
	// time-multiplexes the surplus offloads (the Fig. 2 case) — and the
	// value ordering keeps refills preferring low-thread jobs, which is
	// what lets the next completion's knapsack still find complementary
	// widths.
	if !s.cfg.DisableFill && memBudget > 0 {
		// The fill's thread budget is what remains under the overcommit
		// ceiling after residents and stage-1 picks.
		ceiling := units.Threads(s.cfg.FillThreadOvercommit * float64(hw))
		fillThreads := ceiling - m.ResidentThreads
		for _, q := range picked {
			fillThreads -= q.Job.Threads
		}
		restItems := s.restItems[:0]
		restJobs := s.restJobs[:0]
		for i, q := range candidates {
			if !chosen[i] {
				restItems = append(restItems, items[i])
				restJobs = append(restJobs, q)
			}
		}
		s.restItems, s.restJobs = restItems, restJobs
		if len(restItems) > 0 && fillThreads > 0 {
			res, _ := s.solve(knapsack.Config{
				MemCapacity:       memBudget,
				MemGranularity:    s.cfg.MemGranularity,
				ThreadCapacity:    fillThreads,
				ThreadGranularity: s.cfg.ThreadGranularity,
			}, restItems)
			for _, idx := range res.Selected {
				picked = append(picked, restJobs[idx])
			}
		}
	}
	// The machine's free host slots bound how many jobs it can accept;
	// stage-1 (value-maximal) picks take precedence over fill picks.
	if len(picked) > slotBudget {
		picked = picked[:slotBudget]
	}
	s.pickedScratch = picked
	if s.obs != nil {
		ids := make([]int, len(picked))
		for i, q := range picked {
			ids[i] = q.Job.ID
		}
		s.obs.Emit(p.Now(), obs.LayerCore, "knapsack",
			obs.F("device", m.Name),
			obs.F("candidates", len(candidates)),
			obs.F("mem_budget_mb", m.FreeMem),
			obs.F("thread_budget", threadBudget),
			obs.F("stage1_value", stage1Value),
			obs.F("stage1_fastpath", stage1Fast),
			obs.F("fill", len(picked)-min(stage1Count, len(picked))),
			obs.F("picked_jobs", ids))
	}
	return picked
}
