// Package condor simulates the HTCondor subset the paper's system is built
// on (§II-D, §IV-D1): a central manager (collector + negotiator), machine
// and job ClassAds, periodic FIFO matchmaking, claims, and shadow/starter
// dispatch latency.
//
// Scheduling policy is pluggable. The three cluster software configurations
// of the evaluation map onto policies:
//
//   - MC   (MPSS+Condor): exclusive device allocation (package scheduler)
//   - MCC  (+COSMIC): random packing subject to declared memory (scheduler)
//   - MCCK (+knapsack cluster scheduler): the paper's contribution
//     (package core), integrating exactly as described — it edits pending
//     jobs' Requirements via condor_qedit-style rewrites and waits for the
//     next negotiation cycle to take effect.
package condor

import (
	"fmt"
	"math/bits"
	"sort"

	"phishare/internal/classad"
	"phishare/internal/cluster"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/obs"
	"phishare/internal/runner"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// Well-known ClassAd attribute names used across the system. Machines
// advertise Phi resources (obtained from micinfo in the real system); jobs
// advertise their requests.
const (
	AttrName               = "Name"
	AttrPhiDevices         = "PhiDevices"
	AttrPhiFreeDevices     = "PhiFreeDevices"
	AttrPhiMemory          = "PhiMemory"
	AttrPhiFreeMemory      = "PhiFreeMemory"
	AttrPhiThreads         = "PhiThreads"
	AttrPhiResidentThreads = "PhiResidentThreads"
	AttrResidentJobs       = "ResidentJobs"
	AttrJobID              = "JobId"
	AttrRequestPhiMemory   = "RequestPhiMemory"
	AttrRequestPhiThreads  = "RequestPhiThreads"
	AttrRequestPhiDevices  = "RequestPhiDevices"
	AttrHostSlots          = "HostSlots"
	AttrJobPrio            = "JobPrio"
)

// JobState tracks a queued job through its lifecycle.
type JobState int

const (
	// Idle: pending in the schedd queue, waiting to be matched.
	Idle JobState = iota
	// Dispatched: matched and claimed; in shadow/starter transfer or
	// running on its machine.
	Dispatched
	// Completed: finished successfully.
	Completed
	// Failed: crashed more times than the retry budget allows.
	Failed
)

func (s JobState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Dispatched:
		return "dispatched"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("JobState(%d)", int(s))
}

// QueuedJob is a job in the schedd queue together with its ClassAd and
// lifecycle bookkeeping.
type QueuedJob struct {
	Job *job.Job
	Ad  *classad.Ad

	// Priority orders matchmaking: higher first, FIFO within a level
	// (Condor's JobPrio). Zero by default.
	Priority int
	// User is the submitting user, for fair-share scheduling (Condor's
	// user priorities). Empty means the anonymous default user.
	User string

	State      JobState
	SubmitTime units.Tick
	StartTime  units.Tick // first dispatch
	EndTime    units.Tick
	Crashes    int
	Machine    *Machine // current/last machine
	pool       *Pool    // the pool the job was submitted to
	started    bool
	// runStart is when the job's *current* execution began. StartTime keeps
	// first-start semantics for wait/response metrics; fair-share usage must
	// accrue per run, or a crashed-and-resubmitted job would charge its first
	// run's interval (plus the idle re-queue gap) to its user twice.
	runStart units.Tick

	// Autocluster membership cache (see Pool.autoclusterOf): acID is valid
	// while the ad's version still equals acVer.
	acID  int
	acVer uint64
	acOK  bool
	// reqStr/reqVer remember the last Requirements expression installed by
	// SetRequirements or Qedit and the ad version it produced, so
	// re-applying the identical expression (MCCK re-pins the same plan every
	// cycle in steady state) can skip the mutation and keep the match caches
	// warm, and a policy can read what it installed without evaluating the
	// ad (InstalledRequirements).
	reqStr string
	reqVer uint64
}

// SetRequirements installs the job's Requirements expression, as a policy's
// PrepareJobAd does, and remembers its source for InstalledRequirements. It
// panics on a malformed expression, like classad.Ad.MustSetExpr.
func (q *QueuedJob) SetRequirements(requirements string) {
	q.Ad.MustSetExpr(classad.RequirementsAttr, requirements)
	q.reqStr, q.reqVer = requirements, q.Ad.Version()
}

// InstalledRequirements returns the source of the Requirements expression
// last installed by SetRequirements or Pool.Qedit, and whether the ad is
// unchanged since, so that the expression still holds exactly that source.
func (q *QueuedJob) InstalledRequirements() (string, bool) {
	return q.reqStr, q.reqVer != 0 && q.reqVer == q.Ad.Version()
}

// Machine is one advertised slot: a device unit plus its ClassAd and the
// collector-side resource bookkeeping (free declared memory, resident
// declared threads).
type Machine struct {
	Name string
	Unit *cluster.DeviceUnit
	Ad   *classad.Ad

	FreeMem         units.MB
	ResidentThreads units.Threads
	Resident        []*QueuedJob
	MaxResident     int
	// HostSlots is the machine's resident-job capacity (from Config).
	HostSlots int
	// Offline marks a lost node: the negotiator skips it entirely (its
	// startd stopped advertising). Set and cleared by the fault layer
	// through Pool.SetOffline (which also wakes the dirty-cycle tracker); a
	// machine going offline does not by itself evict residents — the device
	// failure that accompanies a node loss does that.
	Offline bool

	// idx is the machine's position in Pool.machines and its bit in
	// Pool.free.
	idx int

	// acVals memoizes Match verdicts against this machine per autocluster,
	// indexed by acID − Pool.acBase (a dense array beats a hashed map on
	// the negotiation hot path): one verdict per (autocluster, machine-ad
	// version) serves every job of the cluster. Truncated whenever the
	// signature table is wholesale cleared; see Pool.autoclusterOf.
	acVals []acVal
}

// AtCapacity reports whether every host slot is claimed.
func (m *Machine) AtCapacity() bool { return len(m.Resident) >= m.HostSlots }

// FreeSlots is the number of unclaimed host slots.
func (m *Machine) FreeSlots() int {
	n := m.HostSlots - len(m.Resident)
	if n < 0 {
		return 0
	}
	return n
}

// updateAd refreshes the advertised resource levels (the periodic startd →
// collector ClassAd update, applied eagerly here).
func (m *Machine) updateAd() {
	free := 0
	if len(m.Resident) == 0 {
		free = 1
	}
	m.Ad.SetInt(AttrPhiFreeDevices, int64(free))
	m.Ad.SetInt(AttrPhiFreeMemory, int64(m.FreeMem))
	m.Ad.SetInt(AttrPhiResidentThreads, int64(m.ResidentThreads))
	m.Ad.SetInt(AttrResidentJobs, int64(len(m.Resident)))
}

// ExternalPolicy is implemented by policies that run as an external module
// outside the Condor negotiator (the paper's transparent add-on, §IV-D1):
// they react to collector updates, compute placements, and push qedits back
// before matchmaking can proceed. ExtraDelay is that reaction time; it is
// added to every negotiation trigger and is the integration overhead the
// paper observes ("having to wait for Condor's scheduling cycle", Fig. 8).
type ExternalPolicy interface {
	ExtraDelay() units.Tick
}

// Policy is the pluggable cluster-level scheduling behaviour.
//
// The negotiator assumes machine Requirements are monotone under claims:
// within a cycle, a claim can only shrink the set of jobs a machine matches.
// Every shipped policy satisfies this — claims only consume free memory,
// devices, threads and slots. The per-cycle autocluster rejection rests on
// it: once one job of an autocluster found no candidate machine, the rest of
// the cluster is left idle for the cycle without a machine walk. A policy
// whose machine ads could start matching a job *because* of a claim would
// break that skip.
type Policy interface {
	// Name identifies the configuration (e.g. "MC", "MCC", "MCCK").
	Name() string
	// MachineRequirements is the Requirements expression installed on every
	// machine ad — the node-side admission guard. Return "true" for an
	// oversubscription-agnostic cluster (the §III strawman).
	MachineRequirements() string
	// PrepareJobAd populates a job's ad (including its initial
	// Requirements) at submission time.
	PrepareJobAd(q *QueuedJob)
	// PreNegotiation runs at the start of each negotiation cycle, before
	// matchmaking; MCCK computes its knapsack plan here and applies it as
	// one batch of qedits.
	PreNegotiation(p *Pool)
	// Select chooses among machines whose ads matched the job; return -1
	// to leave the job idle this cycle. candidates is non-empty, in machine
	// order. A policy whose choice depends only on len(candidates) may also
	// implement IndexSelector.
	Select(p *Pool, q *QueuedJob, candidates []*Machine) int
	// PostNegotiation runs after matchmaking, for policies that want to
	// observe the cycle's outcome.
	PostNegotiation(p *Pool)
}

// IndexSelector is an optional Policy extension for policies blind to
// candidate identity. Implementing it promises that Select(p, q, cands)
// depends only on len(cands) and equals SelectN(len(cands)), RNG draws
// included. The negotiator then matches a job whose autocluster folds to
// const-true (every machine with a free slot is a candidate) by calling
// SelectN(free machines) and claiming that free machine by rank, with no
// machine walk and no candidate slice. A policy that reads its candidates
// (best fit, affinity) must not implement it.
type IndexSelector interface {
	SelectN(n int) int
}

// Config tunes the Condor mechanics.
type Config struct {
	// NegotiationCycle is the periodic matchmaking interval. HTCondor's
	// NEGOTIATOR_INTERVAL defaults to 60 s, but negotiation is also
	// triggered by queue activity; with completion-triggered cycles
	// (NotifyDelay) the period mostly bounds staleness. Default 10 s.
	NegotiationCycle units.Tick
	// NotifyDelay is the lag between a completion/submission and the
	// negotiation it triggers (collector update propagation). Default 2 s.
	NotifyDelay units.Tick
	// DispatchLatency models the shadow/starter handshake and input file
	// transfer between match and job start. Default 1 s.
	DispatchLatency units.Tick
	// MaxRetries resubmits a crashed job up to this many times before
	// marking it Failed. Default 0 (crashes are terminal).
	MaxRetries int
	// StallLimit aborts the run after this many consecutive empty
	// negotiations with an idle cluster, failing unmatchable jobs instead
	// of looping forever. Default 5.
	StallLimit int
	// ClaimReuse lets a machine whose job just finished immediately start
	// the first pending job that matches it, without waiting for the next
	// negotiation cycle — HTCondor's claim leasing. It removes most of the
	// per-job scheduling latency (ablation A6). Off by default: the
	// paper-faithful configuration pays the negotiation path on every job.
	ClaimReuse bool
	// FairShare enables user-level fair-share matchmaking: each cycle,
	// pending jobs are scanned in ascending order of their user's
	// accumulated device time, so a user who just submitted five jobs is
	// not starved behind another's backlog of hundreds (Condor's user
	// priorities; cf. the fairness-centric schedulers in the paper's
	// related work). Off by default — the paper's experiments are
	// single-user.
	FairShare bool
	// HostSlots caps concurrently resident jobs per machine: every job's
	// host portion occupies a Condor slot on the node's Xeon processors
	// (§IV-D1: "each host processor on a compute node is represented as a
	// slot... only one job can run on one slot at a time"). The paper's
	// servers have two 8-core host Xeons; an offload job keeps roughly a
	// socket busy, so the default is 4 slots per device. Default 4.
	HostSlots int
	// DisableMatchCache is the negotiator's reference oracle: every
	// matchmaking pair goes through the full classad.Match expression
	// evaluation, with no autocluster grouping, verdict cache, constant
	// fold, per-cycle autocluster rejection, dirty-cycle short-circuit or
	// qedit identity elision. The fast and oracle negotiators are
	// semantically identical (verdicts key on the machine ad's mutation
	// counter and the job's signature, so a stale entry is impossible); the
	// flag exists so the equivalence regressions and the chaos swarm's diff
	// mode can prove that by running the full stack both ways.
	DisableMatchCache bool
}

func (c Config) withDefaults() Config {
	if c.NegotiationCycle == 0 {
		c.NegotiationCycle = 10 * units.Second
	}
	if c.NotifyDelay == 0 {
		c.NotifyDelay = 2 * units.Second
	}
	if c.DispatchLatency == 0 {
		c.DispatchLatency = 1 * units.Second
	}
	if c.StallLimit == 0 {
		c.StallLimit = 5
	}
	if c.HostSlots == 0 {
		c.HostSlots = 4
	}
	return c
}

// Stats counts pool activity.
type Stats struct {
	Negotiations int
	Matches      int
	Qedits       int
	Resubmits    int
	Stalled      int // jobs failed by the stall breaker
	ClaimReuses  int // dispatches that skipped negotiation (Config.ClaimReuse)
	// NegotiationRestarts counts cycles aborted and rescheduled by an
	// injected negotiator fault (NegotiationFaults.CycleRestart).
	NegotiationRestarts int
	// CycleSkips counts negotiation cycles short-circuited by the dirty
	// tracker: nothing relevant changed since a previous cycle that matched
	// nothing, so the scan was provably a no-op and was skipped.
	CycleSkips int
}

// NegotiationFaults lets the fault layer (internal/faults) perturb the
// negotiator: TriggerDelay returns extra latency added to each negotiation
// trigger (collector update jitter), and CycleRestart is consulted at the
// top of each cycle — returning ok=true aborts the cycle and reschedules it
// after the returned delay (a negotiator crash/restart). A nil Pool.NegFaults
// disables both, costing one nil check per trigger and cycle.
type NegotiationFaults interface {
	TriggerDelay() units.Tick
	CycleRestart() (units.Tick, bool)
}

// Pool is the Condor pool: central manager plus the machine inventory.
type Pool struct {
	eng    *sim.Engine
	clu    *cluster.Cluster
	cfg    Config
	policy Policy

	machines []*Machine
	jobs     []*QueuedJob
	pending  []*QueuedJob
	inFlight int // dispatched but not yet terminal

	negScheduled bool
	nextNegAt    units.Tick
	negTimer     *sim.Timer // outstanding negotiation trigger (cancelable)
	emptyCycles  int
	makespan     units.Tick
	stats        Stats
	// offline counts machines currently marked Offline, maintained by
	// SetOffline (the mandated funnel) so finishCycle's stall accounting
	// does not rescan the whole inventory every cycle tail.
	offline int

	// free is the free-slot index: bit i of free[i/64] is set iff
	// machines[i] is online with a free host slot, and freeCount is the
	// number of set bits. syncFree keeps both current and is called by
	// every writer of Machine.Resident and Machine.Offline (claim, jobDone,
	// SetOffline). The scan walks only set bits, in machine order, so
	// candidate lists are exactly those of a full walk that skips offline
	// and full machines.
	free      []uint64
	freeCount int
	// indexSel is the policy's IndexSelector, or nil.
	indexSel IndexSelector
	// visits counts machines examined by matchmaking walks, for tests that
	// pin which paths walk the inventory.
	visits int

	// candScratch is the candidates slice reused across every pending job
	// of every cycle (it was re-grown from nil per job before).
	candScratch []*Machine

	// Autocluster matchmaking (HTCondor's autoclusters): pending jobs whose
	// ads are equivalent for matchmaking purposes — identical signatures
	// over Requirements plus every attribute a machine's Requirements can
	// read from the job — share one Match evaluation per machine.
	//
	//   sigRoots  attributes rendered into each job signature: the job's
	//             own Requirements plus the union of every machine-side
	//             TARGET reference (computed once; machine Requirements are
	//             installed at NewPool and never rewritten).
	//   signer    reusable signature renderer (internal/classad).
	//   acIDs     interned signature → dense autocluster id. Ids are never
	//             reused; if the table ever outgrows acTableCap (a workload
	//             with unbounded distinct signatures) it is wholesale
	//             cleared and re-interned signatures get fresh ids, which
	//             only costs extra evaluations, never correctness.
	//   acBase    first acID of the current signature-table era. Match
	//             verdicts live in Machine.acVals indexed by acID − acBase,
	//             valid while the machine ad's version holds (the job side
	//             cannot go stale: a job ad mutation re-signs the job into
	//             the correct — possibly new — autocluster). Clearing the
	//             table advances acBase and truncates every acVals slice,
	//             so slices stay bounded by acTableCap.
	sigRoots []string
	signer   *classad.Signer
	sigBuf   []byte
	acIDs    map[string]int
	acNext   int
	acBase   int
	// acSeen stamps autocluster ids seen during the current cycle's scan
	// (value: cacheGen) so the observability gauge can report how many
	// distinct clusters the pending queue collapsed into.
	acSeen map[int]uint64
	// acRejected is the serial scan's rejected-autocluster stamp, indexed
	// like Machine.acVals: acRejected[acID − acBase] == cacheGen means a job
	// of that autocluster found no candidate machine earlier in this cycle,
	// so the cluster's later jobs are left idle without a machine walk
	// (HTCondor's per-cycle autocluster rejection; exact by the
	// claim-monotonicity assumption on Policy). Truncated with the verdict
	// arrays on an era reset, whose new ids reuse the low indices.
	acRejected []uint64
	// acFold is each autocluster's constant match verdict, indexed and
	// truncated like acRejected: the fold of its Requirements
	// (Signer.FoldRequirements, classified once when the signature is
	// interned — ads with equal signatures fold alike) met with the
	// machines' (machineFold). A FoldFalse cluster matches no machine and a
	// FoldTrue cluster every machine with a free slot, so neither costs a
	// Match evaluation or a verdict-cache lookup. Appended in id order, so
	// len(acFold) == acNext − acBase.
	acFold []classad.Fold
	// machineFold classifies the machine Requirements once, at NewPool
	// (classad.FoldConstant): they come from the policy, are the same on
	// every machine and are never rewritten, but the attributes around them
	// change with every claim, so only an expression that reads no attribute
	// at all folds.
	machineFold classad.Fold

	// Dirty-cycle tracking: cacheGen counts full (non-skipped) negotiation
	// cycles and stamps the per-cycle rejection and cluster-count tables;
	// dirty is set by every event that could change a future cycle's outcome
	// (submission, qedit mutation, claim, release, offline toggle); lastNoOp
	// records that the previous full cycle matched nothing, invoked no policy
	// Select, and mutated no ad. A cycle beginning with !dirty && lastNoOp would repeat
	// that no-op bit for bit, so it is skipped (see negotiate).
	cacheGen   uint64
	dirty      bool
	lastNoOp   bool
	qeditMuts  int // cumulative qedits that actually mutated an ad
	selectCall int // policy.Select invocations in the current cycle

	// usage accumulates per-user device time (claim duration) for
	// fair-share ordering.
	usage map[string]units.Tick

	// recordSink, when non-nil, puts the pool in streaming record mode
	// (SetRecordSink): terminal jobs are rendered to a metrics.JobRecord,
	// handed to the sink, and dropped — p.jobs is never appended to, so
	// resident state is O(pending + in-flight) instead of O(total
	// submitted). Records() is unavailable in this mode.
	recordSink func(metrics.JobRecord)
	// Lifecycle counters. They exist in both modes (Status and the O(1)
	// Done read them), but in streaming mode they are the only job-level
	// bookkeeping that survives a terminal transition.
	submitted      int
	completedCount int
	failedCount    int
	// High-water marks of the two active-job populations — the resident
	// footprint a streaming run is bounded by.
	peakPending  int
	peakInFlight int

	// OnTerminal, if set, is invoked whenever a job reaches Completed or
	// Failed — the hook external tooling (e.g. the resource estimator
	// extension) uses to observe outcomes as they happen.
	OnTerminal func(*QueuedJob)
	// NegFaults, if set, injects negotiator perturbations (see
	// NegotiationFaults). Nil in every non-chaos run.
	NegFaults NegotiationFaults

	// Observability (SetObserver). Instrument handles are resolved once at
	// wiring time; every hot-path site pays a nil check when disabled.
	obs           *obs.Observer
	obsCacheHit   *obs.Counter
	obsCacheMiss  *obs.Counter
	obsCacheInv   *obs.Counter
	obsNeg        *obs.Counter
	obsMatch      *obs.Counter
	obsQedit      *obs.Counter
	obsEvalSaved  *obs.Counter
	obsCycleSkip  *obs.Counter
	obsAutoclu    *obs.Gauge
	obsCycleGap   *obs.Histogram
	lastNegAt     units.Tick
	hasNegotiated bool
}

// acVal is a memoized Match result for every job in an autocluster, valid
// while the machine ad's version holds. mvp stores version+1 so the zero
// value (a freshly grown slot in Machine.acVals) is never a valid entry.
type acVal struct {
	mvp uint64
	ok  bool
}

// acTableCap bounds the signature intern table; see the acIDs field comment.
const acTableCap = 4096

// autoclusterOf returns q's autocluster id, signing the ad only when its
// version moved since the last call (the common case — an unchanged pending
// job — is two integer compares).
func (p *Pool) autoclusterOf(q *QueuedJob) int {
	v := q.Ad.Version()
	if q.acOK && q.acVer == v && q.acID >= p.acBase {
		return q.acID
	}
	p.sigBuf = p.signer.AppendSignature(p.sigBuf[:0], q.Ad, p.sigRoots)
	id, ok := p.acIDs[string(p.sigBuf)] // no-alloc map probe
	if !ok {
		if len(p.acIDs) >= acTableCap {
			// New era: ids stay monotonic so stale cached acIDs (now below
			// acBase) can never collide with fresh ones, and every
			// machine's verdict array restarts empty.
			clear(p.acIDs)
			p.acBase = p.acNext
			for _, m := range p.machines {
				m.acVals = m.acVals[:0]
			}
			p.acRejected = p.acRejected[:0]
			p.acFold = p.acFold[:0]
		}
		id = p.acNext
		p.acNext++
		p.acIDs[string(p.sigBuf)] = id
		p.acFold = append(p.acFold, p.signer.FoldRequirements(q.Ad).Meet(p.machineFold))
	}
	q.acID, q.acVer, q.acOK = id, v, true
	return id
}

// match is the cached equivalent of classad.Match(m.Ad, q.Ad).
func (p *Pool) match(m *Machine, q *QueuedJob) bool {
	if p.cfg.DisableMatchCache {
		// No cache, no cache counters: the observability test asserts every
		// cache series stays zero in this configuration.
		return classad.Match(m.Ad, q.Ad)
	}
	return p.matchCluster(m, q, p.autoclusterOf(q))
}

// matchCluster consults the autocluster cache: one Match evaluation serves
// every job whose ad signs into the same autocluster. Only the machine ad's
// version needs checking — a job-side mutation moves the job to a different
// (or fresh) autocluster id rather than invalidating in place. A folded
// cluster answers from its constant verdict without a lookup.
func (p *Pool) matchCluster(m *Machine, q *QueuedJob, ac int) bool {
	idx := ac - p.acBase // ≥ 0: autoclusterOf re-signs ids from older eras
	switch p.acFold[idx] {
	case classad.FoldTrue:
		return true
	case classad.FoldFalse:
		return false
	}
	for len(m.acVals) <= idx {
		m.acVals = append(m.acVals, acVal{})
	}
	mvp := m.Ad.Version() + 1
	if v := m.acVals[idx]; v.mvp != 0 {
		if v.mvp == mvp {
			p.obsCacheHit.Inc()
			p.obsEvalSaved.Inc()
			return v.ok
		}
		p.obsCacheInv.Inc()
	} else {
		p.obsCacheMiss.Inc()
	}
	ok := classad.Match(m.Ad, q.Ad)
	m.acVals[idx] = acVal{mvp: mvp, ok: ok}
	return ok
}

// NewPool builds a pool over the cluster with the given policy.
func NewPool(eng *sim.Engine, clu *cluster.Cluster, policy Policy, cfg Config) *Pool {
	p := &Pool{eng: eng, clu: clu, cfg: cfg.withDefaults(), policy: policy,
		usage:  map[string]units.Tick{},
		acIDs:  map[string]int{},
		acSeen: map[int]uint64{},
		signer: classad.NewSigner(),
		dirty:  true}
	for _, unit := range clu.Units {
		m := &Machine{
			idx:       len(p.machines),
			Name:      unit.SlotName,
			Unit:      unit,
			Ad:        classad.NewAd(),
			FreeMem:   unit.Device.Config().Memory,
			HostSlots: p.cfg.HostSlots,
		}
		m.Ad.SetStr(AttrName, m.Name)
		m.Ad.SetInt(AttrPhiDevices, 1)
		m.Ad.SetInt(AttrHostSlots, int64(m.HostSlots))
		m.Ad.SetInt(AttrPhiMemory, int64(unit.Device.Config().Memory))
		m.Ad.SetInt(AttrPhiThreads, int64(unit.Device.Config().HWThreads()))
		m.Ad.MustSetExpr(classad.RequirementsAttr, policy.MachineRequirements())
		m.updateAd()
		p.machines = append(p.machines, m)
	}
	if len(p.machines) > 0 {
		p.machineFold = classad.FoldConstant(p.machines[0].Ad)
	}
	p.free = make([]uint64, (len(p.machines)+63)/64)
	for _, m := range p.machines {
		p.syncFree(m)
	}
	p.indexSel, _ = policy.(IndexSelector)
	// Job signatures must cover everything a machine's Requirements can read
	// from the job ad, plus the job's own Requirements. Machine Requirements
	// come from the policy at construction and are never rewritten, so the
	// root set is fixed for the pool's lifetime.
	roots := map[string]bool{classad.RequirementsAttr: true}
	for _, m := range p.machines {
		for _, ref := range m.Ad.TargetRefs(classad.RequirementsAttr) {
			roots[ref] = true
		}
	}
	for r := range roots {
		p.sigRoots = append(p.sigRoots, r)
	}
	sort.Strings(p.sigRoots)
	return p
}

// SetObserver attaches the observability layer and resolves the pool's
// instrument handles. Call before Submit; a nil observer leaves the pool
// uninstrumented (all handles nil, all emissions skipped).
//
// The match-cache counters (condor_match_cache_{hits,misses,invalidations}
// _total) and condor_autocluster_evals_saved_total count lookups actually
// made. A job skipped because its autocluster was already rejected this
// cycle makes none, so on a saturated queue they grow with autoclusters ×
// machines per cycle, not with queue depth. Nor does a job of a folded
// autocluster (Pool.acFold), whose verdict is constant: under MCCK every
// unpinned job's "false" folds, so only pinned clusters are looked up, and
// under MCC ("true" on both sides) nothing is. condor_autoclusters_pending
// still counts skipped and folded jobs' clusters.
func (p *Pool) SetObserver(o *obs.Observer) {
	p.obs = o
	p.obsCacheHit = o.Counter("condor_match_cache_hits_total")
	p.obsCacheMiss = o.Counter("condor_match_cache_misses_total")
	p.obsCacheInv = o.Counter("condor_match_cache_invalidations_total")
	p.obsNeg = o.Counter("condor_negotiations_total")
	p.obsMatch = o.Counter("condor_matches_total")
	p.obsQedit = o.Counter("condor_qedits_total")
	p.obsEvalSaved = o.Counter("condor_autocluster_evals_saved_total")
	p.obsCycleSkip = o.Counter("condor_negotiation_skips_total")
	p.obsAutoclu = o.Gauge("condor_autoclusters_pending")
	p.obsCycleGap = o.Histogram("condor_negotiation_gap_seconds",
		[]float64{1, 2, 5, 10, 20, 30, 60, 120})
}

// Machines exposes the machine inventory (fixed order).
func (p *Pool) Machines() []*Machine { return p.machines }

// Pending returns the idle jobs in FIFO order. The slice is shared; policies
// must not reorder it.
func (p *Pool) Pending() []*QueuedJob { return p.pending }

// Jobs returns every submitted job.
func (p *Pool) Jobs() []*QueuedJob { return p.jobs }

// Stats returns activity counters.
func (p *Pool) Stats() Stats { return p.stats }

// Policy returns the installed scheduling policy.
func (p *Pool) Policy() Policy { return p.policy }

// Makespan is the completion time of the last terminal job.
func (p *Pool) Makespan() units.Tick { return p.makespan }

// Now returns the current simulated time (for policies and samplers that
// hold a pool but not its engine).
func (p *Pool) Now() units.Tick { return p.eng.Now() }

// InFlight returns the number of dispatched, not-yet-terminal jobs.
func (p *Pool) InFlight() int { return p.inFlight }

// Submit enqueues jobs at the current time (priority 0) and triggers
// negotiation.
func (p *Pool) Submit(jobs []*job.Job) { p.SubmitWithPriority(jobs, 0) }

// SubmitWithPriority enqueues jobs with the given matchmaking priority
// (Condor's JobPrio: higher is served first; FIFO within a level).
func (p *Pool) SubmitWithPriority(jobs []*job.Job, priority int) {
	p.SubmitAs("", jobs, priority)
}

// SubmitAs enqueues jobs on behalf of user, for fair-share accounting.
func (p *Pool) SubmitAs(user string, jobs []*job.Job, priority int) {
	for _, j := range jobs {
		q := &QueuedJob{Job: j, Ad: classad.NewAd(), SubmitTime: p.eng.Now(),
			Priority: priority, User: user, pool: p}
		q.Ad.SetInt(AttrJobID, int64(j.ID))
		q.Ad.SetInt(AttrRequestPhiMemory, int64(j.Mem))
		q.Ad.SetInt(AttrRequestPhiThreads, int64(j.Threads))
		q.Ad.SetInt(AttrRequestPhiDevices, 1)
		q.Ad.SetInt(AttrJobPrio, int64(priority))
		p.policy.PrepareJobAd(q)
		p.submitted++
		if p.recordSink == nil {
			p.jobs = append(p.jobs, q)
		}
		p.insertPending(q)
		if p.obs != nil {
			p.obs.Emit(p.eng.Now(), obs.LayerCondor, "submit",
				obs.Int("job", q.Job.ID))
		}
	}
	p.requestNegotiation(p.cfg.NotifyDelay)
}

// insertPending keeps the pending queue ordered by (priority desc, arrival)
// so the FIFO scan of negotiate respects priorities. The insertion point is
// found by binary search — the old backward linear compare walk was O(n) per
// insert, O(n²) to build a 100k-job queue (the tail shift itself is a single
// memmove either way; see BenchmarkInsertPending and
// TestInsertPendingMatchesLinearScan).
func (p *Pool) insertPending(q *QueuedJob) {
	p.dirty = true
	i := sort.Search(len(p.pending), func(k int) bool {
		return p.pending[k].Priority < q.Priority
	})
	p.pending = append(p.pending, nil)
	copy(p.pending[i+1:], p.pending[i:])
	p.pending[i] = q
	if len(p.pending) > p.peakPending {
		p.peakPending = len(p.pending)
	}
}

// Qedit rewrites a pending job's Requirements, the condor_qedit integration
// point the knapsack scheduler uses to pin jobs to slots (§IV-D1).
func (p *Pool) Qedit(q *QueuedJob, requirements string) {
	p.stats.Qedits++
	p.obsQedit.Inc()
	if p.obs != nil {
		p.obs.Emit(p.eng.Now(), obs.LayerCondor, "qedit",
			obs.Int("job", q.Job.ID), obs.Str("requirements", requirements))
	}
	if !p.cfg.DisableMatchCache &&
		q.reqVer == q.Ad.Version() && q.reqStr == requirements {
		// The ad already holds exactly this expression (MCCK re-pins the
		// same plan every steady-state cycle). Matchmaking cannot tell the
		// rewritten ad from the untouched one — the contents are identical —
		// so skip the mutation and keep the ad version, and with it the
		// match and autocluster caches, warm.
		return
	}
	if err := q.Ad.SetExpr(classad.RequirementsAttr, requirements); err != nil {
		panic(fmt.Sprintf("condor: qedit of job %d: %v", q.Job.ID, err))
	}
	q.reqStr, q.reqVer = requirements, q.Ad.Version()
	p.qeditMuts++
	p.dirty = true
}

// requestNegotiation schedules a negotiation after delay, keeping only the
// earliest outstanding request. External policies add their reaction time.
// A superseded trigger is truly removed from the event heap (sim.Timer.Stop)
// rather than left to fire as a no-op: the old generation-check approach
// kept one dead closure queued per superseded request, which grew the heap
// without bound under sustained submit/qedit churn
// (TestSupersededTriggersLeaveHeap).
func (p *Pool) requestNegotiation(delay units.Tick) {
	if ext, ok := p.policy.(ExternalPolicy); ok {
		delay += ext.ExtraDelay()
	}
	if p.NegFaults != nil {
		delay += p.NegFaults.TriggerDelay()
	}
	at := p.eng.Now() + delay
	if p.negScheduled && p.nextNegAt <= at {
		return
	}
	if p.negTimer != nil {
		p.negTimer.Stop()
	}
	p.negScheduled = true
	p.nextNegAt = at
	p.negTimer = p.eng.AtTimer(at, func() {
		p.negTimer = nil
		p.negScheduled = false
		p.negotiate()
	})
}

// negotiate runs one matchmaking cycle: policy pre-hook, FIFO scan of
// pending jobs against machine ads, claims and dispatches, policy post-hook.
func (p *Pool) negotiate() {
	if p.NegFaults != nil {
		if delay, restart := p.NegFaults.CycleRestart(); restart {
			// Negotiator died at cycle start: nothing was matched, the cycle
			// re-runs after the restart delay.
			p.stats.NegotiationRestarts++
			if p.obs != nil {
				p.obs.Emit(p.eng.Now(), obs.LayerCondor, "negotiation_restart",
					obs.Int("delay_ms", delay))
			}
			p.requestNegotiation(delay)
			return
		}
	}
	p.stats.Negotiations++
	p.obsNeg.Inc()
	if p.obs != nil {
		now := p.eng.Now()
		if p.hasNegotiated {
			p.obsCycleGap.Observe((now - p.lastNegAt).Seconds())
		}
		p.lastNegAt = now
		p.hasNegotiated = true
		p.obs.Emit(now, obs.LayerCondor, "negotiation_start",
			obs.Int("cycle", p.stats.Negotiations),
			obs.Int("pending", len(p.pending)),
			obs.Int("in_flight", p.inFlight))
	}

	if !p.cfg.DisableMatchCache && !p.dirty && p.lastNoOp {
		// Nothing relevant changed since a full cycle that matched nothing,
		// called no policy Select (so no policy RNG draw can be owed), and
		// mutated no ad: re-running the scan would reproduce that no-op bit
		// for bit. Skip straight to the cycle tail, which performs exactly
		// the bookkeeping the full cycle would have (the stall counter sees
		// the same matched/inFlight/Offline values).
		p.stats.CycleSkips++
		p.obsCycleSkip.Inc()
		if p.obs != nil {
			p.obs.Emit(p.eng.Now(), obs.LayerCondor, "negotiation_skip",
				obs.Int("cycle", p.stats.Negotiations),
				obs.Int("pending", len(p.pending)))
		}
		p.finishCycle(0)
		return
	}

	p.cacheGen++
	qedits0 := p.qeditMuts
	p.selectCall = 0
	p.policy.PreNegotiation(p)

	if p.cfg.FairShare {
		// Least-served users first; stable, so priority and arrival order
		// survive within each user.
		sort.SliceStable(p.pending, func(i, j int) bool {
			return p.usage[p.pending[i].User] < p.usage[p.pending[j].User]
		})
	}

	matched := p.scanSerial()
	p.stats.Matches += matched

	p.policy.PostNegotiation(p)

	// The cycle itself is the last thing that could have dirtied the pool
	// before the next trigger fires; from here on, only external events
	// (submission, completion, fault, qedit) can.
	p.lastNoOp = matched == 0 && p.selectCall == 0 && p.qeditMuts == qedits0
	p.dirty = false

	if p.obs != nil {
		p.obs.Emit(p.eng.Now(), obs.LayerCondor, "negotiation_end",
			obs.Int("cycle", p.stats.Negotiations),
			obs.Int("matched", matched),
			obs.Int("pending", len(p.pending)))
	}

	p.finishCycle(matched)
}

// scanSerial is the matchmaking scan: for each pending job in order,
// evaluate every machine's live ad and hand the matches to the policy. On
// the autocluster path a job whose cluster was already rejected this cycle
// skips the machine walk, so a saturated cycle costs O(autoclusters ×
// machines) rather than O(pending × machines); a folded cluster
// (Pool.acFold) costs no Match evaluation at all; the walk visits only the
// machines in the free-slot index; and a FoldTrue cluster under an
// IndexSelector policy visits none (selectFree). DisableMatchCache keeps the
// full per-job walk over every machine as the oracle.
func (p *Pool) scanSerial() (matched int) {
	autoclusters := !p.cfg.DisableMatchCache
	countClusters := autoclusters && p.obs != nil
	if countClusters {
		clear(p.acSeen)
	}
	clusters := 0
	still := p.pending[:0] // in-place filter: write index trails read index
	if cap(p.candScratch) < len(p.machines) {
		p.candScratch = make([]*Machine, 0, len(p.machines))
	}
	for _, q := range p.pending {
		ac := -1
		if autoclusters {
			ac = p.autoclusterOf(q)
			if countClusters {
				if p.acSeen[ac] != p.cacheGen {
					p.acSeen[ac] = p.cacheGen
					clusters++
				}
			}
			if p.autoclusterRejected(ac) {
				still = append(still, q)
				continue
			}
			switch p.acFold[ac-p.acBase] {
			case classad.FoldFalse:
				// No machine can match: the walk would build an empty list.
				p.rejectAutocluster(ac)
				still = append(still, q)
				continue
			case classad.FoldTrue:
				if p.indexSel != nil {
					// Every free machine is a candidate and the policy reads
					// only their number: pick by rank, without the list.
					if p.selectFree(q, ac) {
						matched++
					} else {
						still = append(still, q)
					}
					continue
				}
			}
		}
		candidates := p.candScratch[:0]
		if ac >= 0 {
			for w, x := range p.free {
				for ; x != 0; x &= x - 1 {
					m := p.machines[w<<6|bits.TrailingZeros64(x)]
					p.visits++
					if p.matchCluster(m, q, ac) {
						candidates = append(candidates, m)
					}
				}
			}
		} else {
			for _, m := range p.machines {
				p.visits++
				// A machine with no free host slot cannot accept any job,
				// whatever the ads say: the starter has nowhere to run. An
				// offline machine's startd is not advertising at all.
				if m.Offline || m.AtCapacity() {
					continue
				}
				if classad.Match(m.Ad, q.Ad) {
					candidates = append(candidates, m)
				}
			}
		}
		idx := -1
		if len(candidates) > 0 {
			p.selectCall++
			idx = p.policy.Select(p, q, candidates)
		} else if ac >= 0 {
			p.rejectAutocluster(ac)
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
	if countClusters {
		p.obsAutoclu.Set(float64(clusters))
	}
	return matched
}

// selectFree matches q, of FoldTrue autocluster ac, under an IndexSelector
// policy: the candidates a walk would build are exactly the free machines,
// so the policy's choice among them is SelectN(freeCount), and the chosen
// candidate is the free machine of that rank. The rejection stamp, the Select
// count and the decline rule are those of the walk. It reports whether q was
// claimed.
func (p *Pool) selectFree(q *QueuedJob, ac int) bool {
	n := p.freeCount
	if n == 0 {
		p.rejectAutocluster(ac)
		return false
	}
	p.selectCall++
	k := p.indexSel.SelectN(n)
	if k < 0 || k >= n {
		return false
	}
	p.claim(q, p.machines[p.nthFree(k)])
	return true
}

// nthFree returns the machine index of the free machine of rank k (0-based,
// in machine order); 0 <= k < freeCount.
func (p *Pool) nthFree(k int) int {
	for w, x := range p.free {
		if c := bits.OnesCount64(x); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			x &= x - 1
		}
		return w<<6 | bits.TrailingZeros64(x)
	}
	panic("condor: free-slot rank out of range")
}

// syncFree sets m's bit in the free-slot index to !Offline && !AtCapacity().
func (p *Pool) syncFree(m *Machine) {
	w, bit := m.idx>>6, uint64(1)<<(m.idx&63)
	if (p.free[w]&bit != 0) == (!m.Offline && !m.AtCapacity()) {
		return
	}
	p.free[w] ^= bit
	if p.free[w]&bit != 0 {
		p.freeCount++
	} else {
		p.freeCount--
	}
}

// FreeMachines reports how many machines are online with a free host slot,
// from the free-slot index. The faults invariant checker compares it, and
// each machine's bit (InFreeIndex), against a full scan at every event
// boundary.
func (p *Pool) FreeMachines() int { return p.freeCount }

// InFreeIndex reports whether m's bit is set in the free-slot index.
func (p *Pool) InFreeIndex(m *Machine) bool {
	return p.free[m.idx>>6]&(uint64(1)<<(m.idx&63)) != 0
}

// autoclusterRejected reports whether a job of autocluster ac already found
// no candidate machine earlier in the current cycle (see Pool.acRejected).
// Only an empty candidate list stamps a cluster — a Select that declines
// non-empty candidates does not — so a skipped job is exactly one for which
// the full scan would have built an empty list and called no Select.
func (p *Pool) autoclusterRejected(ac int) bool {
	i := ac - p.acBase
	return i < len(p.acRejected) && p.acRejected[i] == p.cacheGen
}

// rejectAutocluster stamps ac as rejected for the current cycle.
func (p *Pool) rejectAutocluster(ac int) {
	i := ac - p.acBase
	for len(p.acRejected) <= i {
		p.acRejected = append(p.acRejected, 0)
	}
	p.acRejected[i] = p.cacheGen
}

// finishCycle is the tail every negotiation cycle — full or skipped — runs:
// stall accounting, the stall breaker, and the periodic re-trigger.
func (p *Pool) finishCycle(matched int) {
	if matched == 0 && p.inFlight == 0 && !p.anyOffline() {
		// An empty cycle while a node is down is not evidence of an
		// unmatchable job — the repair may make it matchable again — so it
		// does not count toward the stall limit.
		p.emptyCycles++
	} else {
		p.emptyCycles = 0
	}
	if p.emptyCycles >= p.cfg.StallLimit {
		// Nothing can ever match the rest (e.g. a job larger than any
		// device): fail them rather than negotiate forever.
		for _, q := range p.pending {
			q.State = Failed
			q.EndTime = p.eng.Now()
			p.noteEnd(q.EndTime)
			p.stats.Stalled++
			if p.obs != nil {
				p.obs.Emit(p.eng.Now(), obs.LayerCondor, "stall_abort",
					obs.Int("job", q.Job.ID))
			}
			p.retire(q)
		}
		p.pending = nil
		return
	}
	if len(p.pending) > 0 {
		p.requestNegotiation(p.cfg.NegotiationCycle)
	}
}

// anyOffline reports whether any machine is currently marked Offline, from
// the counter SetOffline maintains — finishCycle runs this on every cycle
// tail, and the previous full-inventory scan was O(machines) per cycle.
func (p *Pool) anyOffline() bool { return p.offline > 0 }

// OfflineMachines reports how many machines are currently marked Offline.
// The faults invariant checker compares it against a full scan at every
// event boundary, so any SetOffline bypass or counter drift is caught the
// moment it happens.
func (p *Pool) OfflineMachines() int { return p.offline }

// PokeNegotiation requests a negotiation cycle after the standard notify
// delay. The fault layer calls it when a repaired node comes back, so idle
// jobs do not wait out the full periodic cycle to rediscover it.
func (p *Pool) PokeNegotiation() {
	if len(p.pending) > 0 {
		p.requestNegotiation(p.cfg.NotifyDelay)
	}
}

// SetOffline marks a machine lost or repaired. The fault layer must route
// startd state changes through here rather than writing Machine.Offline
// directly, so the dirty-cycle tracker knows the machine set changed.
func (p *Pool) SetOffline(m *Machine, offline bool) {
	if m.Offline == offline {
		return
	}
	m.Offline = offline
	if offline {
		p.offline++
	} else {
		p.offline--
	}
	p.syncFree(m)
	p.dirty = true
}

// NegotiateOnce runs one synchronous matchmaking cycle outside the engine's
// event loop, forcing a full scan (the dirty-cycle short-circuit is
// bypassed) and suppressing both the follow-up negotiation the cycle would
// normally schedule and any stall-counter accumulation. Benchmarks and tests
// use it to measure one isolated cycle against a prepared queue.
//
// The probe restores every piece of negotiator state it touches — including
// the dirty-cycle tracker (dirty, lastNoOp), which an earlier version leaked:
// the probe cycle left dirty=false and its own lastNoOp behind, so the first
// engine-driven cycle after a probe could take (or miss) the skip
// short-circuit differently from an unprobed pool
// (TestNegotiateOnceLeavesSkipStateUntouched).
//
//philint:ignore deadapi test hook: the root BenchmarkNegotiate drives single cycles with it
func (p *Pool) NegotiateOnce() {
	dirty, noOp := p.dirty, p.lastNoOp
	scheduled, at, empty := p.negScheduled, p.nextNegAt, p.emptyCycles
	p.dirty = true
	p.negScheduled, p.nextNegAt = true, 0 // makes requestNegotiation a no-op
	p.negotiate()
	p.negScheduled, p.nextNegAt, p.emptyCycles = scheduled, at, empty
	p.dirty, p.lastNoOp = dirty, noOp
}

// claim reserves the machine's advertised resources and dispatches the job
// through the shadow/starter path.
func (p *Pool) claim(q *QueuedJob, m *Machine) {
	p.dirty = true
	q.State = Dispatched
	q.Machine = m
	m.FreeMem -= q.Job.Mem
	m.ResidentThreads += q.Job.Threads
	m.Resident = append(m.Resident, q)
	if len(m.Resident) > m.MaxResident {
		m.MaxResident = len(m.Resident)
	}
	p.syncFree(m)
	m.updateAd()
	p.inFlight++
	if p.inFlight > p.peakInFlight {
		p.peakInFlight = p.inFlight
	}
	p.obsMatch.Inc()
	if p.obs != nil {
		p.obs.Emit(p.eng.Now(), obs.LayerCondor, "match",
			obs.Int("job", q.Job.ID), obs.Str("machine", m.Name),
			obs.Int("free_mem_mb", m.FreeMem),
			obs.Int("resident", len(m.Resident)))
	}

	p.eng.AfterH(p.cfg.DispatchLatency, (*claimRun)(q), 0)
}

// claimRun is a claimed job in its roles as the claim's dispatch event
// (Fire) and as the receiver of its run's result (Done), so a claim
// schedules no closure. The claim's machine is q.Machine throughout.
type claimRun QueuedJob

// Fire starts the job's run on its machine once the dispatch latency has
// elapsed.
func (c *claimRun) Fire(uint64) {
	q := (*QueuedJob)(c)
	p, m := q.pool, q.Machine
	if !q.started {
		q.started = true
		q.StartTime = p.eng.Now()
	}
	q.runStart = p.eng.Now()
	if p.obs != nil {
		p.obs.Emit(p.eng.Now(), obs.LayerCondor, "execute",
			obs.Int("job", q.Job.ID), obs.Str("machine", m.Name))
	}
	runner.Run(m.Unit, q.Job, c)
}

// Done releases the claim with the run's result.
func (c *claimRun) Done(r runner.Result) {
	q := (*QueuedJob)(c)
	q.pool.jobDone(q, q.Machine, r)
}

// jobDone releases the claim and either retires or resubmits the job.
func (p *Pool) jobDone(q *QueuedJob, m *Machine, r runner.Result) {
	p.dirty = true
	p.usage[q.User] += p.eng.Now() - q.runStart
	m.FreeMem += q.Job.Mem
	m.ResidentThreads -= q.Job.Threads
	for i, x := range m.Resident {
		if x == q {
			m.Resident = append(m.Resident[:i], m.Resident[i+1:]...)
			break
		}
	}
	p.syncFree(m)
	m.updateAd()
	p.inFlight--

	if r.Outcome == runner.Crashed {
		q.Crashes++
		if p.obs != nil {
			p.obs.Emit(p.eng.Now(), obs.LayerCondor, "crash",
				obs.Int("job", q.Job.ID), obs.Str("machine", m.Name),
				obs.Int("crashes", q.Crashes))
		}
		if q.Crashes <= p.cfg.MaxRetries {
			q.State = Idle
			p.policy.PrepareJobAd(q) // reset Requirements for a fresh match
			p.insertPending(q)
			p.stats.Resubmits++
			if p.obs != nil {
				p.obs.Emit(p.eng.Now(), obs.LayerCondor, "resubmit",
					obs.Int("job", q.Job.ID))
			}
			p.requestNegotiation(p.cfg.NotifyDelay)
			return
		}
		q.State = Failed
	} else {
		q.State = Completed
		if p.obs != nil {
			p.obs.Emit(p.eng.Now(), obs.LayerCondor, "terminate",
				obs.Int("job", q.Job.ID), obs.Str("machine", m.Name))
		}
	}
	q.EndTime = p.eng.Now()
	p.noteEnd(q.EndTime)
	p.retire(q)
	if p.cfg.ClaimReuse {
		p.reuseClaim(m)
	}
	if len(p.pending) > 0 {
		p.requestNegotiation(p.cfg.NotifyDelay)
	}
}

// reuseClaim hands the vacated machine to the first pending job that
// matches it, skipping the negotiation round trip (Condor claim leasing).
func (p *Pool) reuseClaim(m *Machine) {
	if m.Offline || m.AtCapacity() {
		return
	}
	for i, q := range p.pending {
		if p.match(m, q) {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			p.stats.ClaimReuses++
			p.claim(q, m)
			return
		}
	}
}

func (p *Pool) noteEnd(t units.Tick) {
	if t > p.makespan {
		p.makespan = t
	}
}

// retire is the single funnel every terminal transition (completion, final
// failure, stall abort) passes through: it maintains the lifecycle
// counters, fires the OnTerminal hook, and in streaming mode renders the
// job to its record, hands it to the sink, and lets the job go — the only
// remaining reference is whatever the sink chose to keep.
func (p *Pool) retire(q *QueuedJob) {
	if q.State == Completed {
		p.completedCount++
	} else {
		p.failedCount++
	}
	if p.OnTerminal != nil {
		p.OnTerminal(q)
	}
	if p.recordSink != nil {
		p.recordSink(p.recordOf(q))
	}
}

// SetRecordSink switches the pool to streaming record mode: every terminal
// job is emitted to sink as a metrics.JobRecord and dropped instead of
// retained in the queue, making resident state O(active jobs). Must be
// called before the first Submit (the already-retained prefix would
// otherwise make Records and the sink disagree); Records panics afterward.
// A nil sink is rejected rather than interpreted as "switch back".
func (p *Pool) SetRecordSink(sink func(metrics.JobRecord)) {
	if sink == nil {
		panic("condor: SetRecordSink(nil)")
	}
	if p.submitted > 0 {
		panic("condor: SetRecordSink after Submit")
	}
	p.recordSink = sink
}

// RetainsJobs reports whether the pool keeps terminal jobs resident (the
// classic mode). Streaming pools return false; whole-queue consumers like
// Records and the fault-invariant checker must not be pointed at them.
func (p *Pool) RetainsJobs() bool { return p.recordSink == nil }

// PeakPending is the high-water mark of the idle queue.
func (p *Pool) PeakPending() int { return p.peakPending }

// PeakInFlight is the high-water mark of dispatched, not-yet-terminal jobs.
func (p *Pool) PeakInFlight() int { return p.peakInFlight }

// Done reports whether every submitted job reached a terminal state — a
// counter compare, not a queue scan, so the run loop can poll it per cycle
// without an O(total jobs) walk.
func (p *Pool) Done() bool {
	return p.completedCount+p.failedCount == p.submitted
}

// recordOf renders one terminal (or any) queued job to its metrics record.
// Records and the streaming sink share it, so the two modes cannot drift.
func (p *Pool) recordOf(q *QueuedJob) metrics.JobRecord {
	rec := metrics.JobRecord{
		ID:         q.Job.ID,
		Workload:   q.Job.Workload,
		User:       q.User,
		SubmitTime: q.SubmitTime,
		StartTime:  q.StartTime,
		EndTime:    q.EndTime,
		Completed:  q.State == Completed,
		Crashes:    q.Crashes,
		SeqWork:    q.Job.SequentialTime(),
	}
	if q.Machine != nil {
		rec.Machine = q.Machine.Name
	}
	return rec
}

// Records converts the job queue into metrics records. Unavailable in
// streaming mode, where the records went to the sink as they happened.
func (p *Pool) Records() []metrics.JobRecord {
	if p.recordSink != nil {
		panic("condor: Records on a streaming pool (records were emitted to the sink)")
	}
	recs := make([]metrics.JobRecord, 0, len(p.jobs))
	for _, q := range p.jobs {
		recs = append(recs, p.recordOf(q))
	}
	return recs
}

// Usage returns the user's accumulated device time (fair-share metric).
func (p *Pool) Usage(user string) units.Tick { return p.usage[user] }

// MaxConcurrency returns the peak number of jobs resident on any machine.
func (p *Pool) MaxConcurrency() int {
	max := 0
	for _, m := range p.machines {
		if m.MaxResident > max {
			max = m.MaxResident
		}
	}
	return max
}
