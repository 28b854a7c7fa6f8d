// Package faults is the deterministic fault-injection and invariant layer.
//
// The paper's whole argument rests on failure behaviour — §II-C's "two jobs
// fit now but crash later" OOM hazard and the crash/resubmit churn of the MC
// baseline — yet a simulator's failure paths are exactly the code its happy
// paths never exercise. This package attacks that from both sides:
//
//   - An Injector perturbs a running simulation with seeded, reproducible
//     faults: whole-device failures with repair delays, mid-run node losses
//     that evict every resident job back into the Condor queue, transient
//     offload faults that kill one running process, and negotiator
//     jitter/restart. Every draw flows through rng.Source forks, so a
//     failing (seed, profile, policy) triple replays bit-for-bit.
//
//   - A Checker (invariants.go) audits conservation laws after every
//     simulation event and at termination: resources never go negative,
//     bookkeeping sums match reality, no job is lost or duplicated, every
//     terminal callback fires exactly once, and fair-share usage equals the
//     sum of actual execution intervals reconstructed from the pool's
//     condor-layer obs events.
//
// Both default off. A Harness (harness.go) with a zero Profile and
// Check=false wires nothing; with Check=true but no faults, the checker
// observes without perturbing — runs stay bit-identical to bare runs
// (TestChaosDisabledPreservesOutcomes). cmd/phichaos sweeps seeds ×
// policies × profiles under the checker as a simulator fuzzer.
package faults

import (
	"phishare/internal/cluster"
	"phishare/internal/condor"
	"phishare/internal/obs"
	"phishare/internal/phi"
	"phishare/internal/rng"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// DeviceFault is one scripted device failure, for tests that need an exact
// failure time rather than an MTBF process. Repair > 0 restores the device
// that long after the failure; Repair == 0 leaves it down for good (jobs
// matched onto it crash until their retry budget runs out — the machine
// stays advertised, as a wedged-but-present startd would).
type DeviceFault struct {
	Slot   string // cluster.DeviceUnit.SlotName, e.g. "slot1@node0"
	At     units.Tick
	Repair units.Tick
}

// Profile selects which faults an Injector generates and at what rates.
// The zero Profile injects nothing.
type Profile struct {
	Name string

	// DeviceMTBF is the per-device mean time between whole-device failures
	// (card resets); 0 disables them. Each failure kills every resident
	// process with KillDeviceFailure and rejects attaches until the repair,
	// DeviceRepair later.
	DeviceMTBF   units.Tick
	DeviceRepair units.Tick

	// NodeMTBF is the per-node mean time between node losses; 0 disables
	// them. A node loss fails every device on the node and takes its
	// machines out of matchmaking (Machine.Offline) until the repair,
	// NodeRepair later.
	NodeMTBF   units.Tick
	NodeRepair units.Tick

	// OffloadFaultMTBF is the per-device mean time between transient offload
	// faults; 0 disables them. Each fault kills one uniformly chosen process
	// with a running offload (COI transport error, kernel fault).
	OffloadFaultMTBF units.Tick

	// NegotiationJitter, when > 0, adds an Exp(NegotiationJitter) delay to
	// every negotiation trigger (collector update propagation noise).
	NegotiationJitter units.Tick
	// NegotiationRestartProb is the probability that a negotiation cycle
	// aborts at its start and reruns NegotiationRestartDelay later (a
	// negotiator crash/restart). Must be < 1.
	NegotiationRestartProb  float64
	NegotiationRestartDelay units.Tick

	// Horizon, when > 0, stops fault generation after this time; repairs
	// for already-injected faults still land. 0 means faults continue until
	// every job is terminal.
	Horizon units.Tick

	// Script adds exactly-timed device failures on top of (or instead of)
	// the stochastic processes above.
	Script []DeviceFault
}

// Enabled reports whether the profile injects anything at all.
func (p Profile) Enabled() bool {
	return p.DeviceMTBF > 0 || p.NodeMTBF > 0 || p.OffloadFaultMTBF > 0 ||
		p.NegotiationJitter > 0 || p.NegotiationRestartProb > 0 || len(p.Script) > 0
}

// perturbsNegotiation reports whether the pool's NegFaults hook is needed.
func (p Profile) perturbsNegotiation() bool {
	return p.NegotiationJitter > 0 || p.NegotiationRestartProb > 0
}

// withDefaults fills repair delays so no stochastic fault is permanent.
func (p Profile) withDefaults() Profile {
	if p.DeviceMTBF > 0 && p.DeviceRepair == 0 {
		p.DeviceRepair = 30 * units.Second
	}
	if p.NodeMTBF > 0 && p.NodeRepair == 0 {
		p.NodeRepair = 60 * units.Second
	}
	if p.NegotiationRestartProb > 0 && p.NegotiationRestartDelay == 0 {
		p.NegotiationRestartDelay = 5 * units.Second
	}
	return p
}

// LightProfile is occasional single-device trouble: device failures every
// ~10 min of simulated time per device, quick repairs, mild trigger jitter.
func LightProfile() Profile {
	return Profile{
		Name:              "light",
		DeviceMTBF:        10 * units.Minute,
		DeviceRepair:      20 * units.Second,
		NegotiationJitter: 500 * units.Millisecond,
	}
}

// HeavyProfile piles everything on: frequent device failures, node losses,
// transient offload faults, and a flaky negotiator.
func HeavyProfile() Profile {
	return Profile{
		Name:                    "heavy",
		DeviceMTBF:              3 * units.Minute,
		DeviceRepair:            15 * units.Second,
		NodeMTBF:                8 * units.Minute,
		NodeRepair:              45 * units.Second,
		OffloadFaultMTBF:        4 * units.Minute,
		NegotiationJitter:       1 * units.Second,
		NegotiationRestartProb:  0.15,
		NegotiationRestartDelay: 3 * units.Second,
	}
}

// Profiles returns the built-in profiles by name, in sweep order.
func Profiles() []Profile { return []Profile{LightProfile(), HeavyProfile()} }

// ProfileByName resolves a built-in profile. "none" and "" yield the zero
// profile; unknown names return ok=false.
func ProfileByName(name string) (Profile, bool) {
	switch name {
	case "", "none":
		return Profile{Name: "none"}, true
	case "light":
		return LightProfile(), true
	case "heavy":
		return HeavyProfile(), true
	}
	return Profile{}, false
}

// Stats counts injected faults.
type Stats struct {
	DeviceFailures   int
	NodeLosses       int
	Repairs          int
	OffloadKills     int
	Evictions        int // processes killed by device failures and node losses
	JitteredTriggers int
	Restarts         int
}

// Injector drives one run's fault processes. Create via NewInjector, then
// Start before job submission.
type Injector struct {
	prof Profile
	eng  *sim.Engine
	clu  *cluster.Cluster
	pool *condor.Pool
	o    *obs.Observer

	root    *rng.Source
	negRand *rng.Source
	stats   Stats

	// machineOf maps each device unit to its pool machine, for node loss.
	machineOf map[*cluster.DeviceUnit]*condor.Machine
}

// NewInjector builds an injector over a freshly assembled stack. seed is
// decoupled from the run's own randomness by forking a dedicated stream, so
// enabling faults never perturbs workload or policy draws directly (only
// through the faults themselves). o may be nil.
func NewInjector(eng *sim.Engine, clu *cluster.Cluster, pool *condor.Pool, prof Profile, seed int64, o *obs.Observer) *Injector {
	root := rng.New(seed).Fork("faults")
	inj := &Injector{
		prof:      prof.withDefaults(),
		eng:       eng,
		clu:       clu,
		pool:      pool,
		o:         o,
		root:      root,
		negRand:   root.Fork("negotiation"),
		machineOf: map[*cluster.DeviceUnit]*condor.Machine{},
	}
	for _, m := range pool.Machines() {
		inj.machineOf[m.Unit] = m
	}
	return inj
}

// Stats returns the injection counters.
func (inj *Injector) Stats() Stats { return inj.stats }

// Start schedules every fault process the profile enables. Call once,
// before eng.Run; the negotiation hook is installed here too.
func (inj *Injector) Start() {
	if inj.prof.perturbsNegotiation() {
		inj.pool.NegFaults = inj
	}
	for _, u := range inj.clu.Units {
		if inj.prof.DeviceMTBF > 0 {
			inj.scheduleDeviceFault(u, inj.root.Fork("devfail-"+u.SlotName))
		}
		if inj.prof.OffloadFaultMTBF > 0 {
			inj.scheduleOffloadFault(u, inj.root.Fork("offfault-"+u.SlotName))
		}
	}
	if inj.prof.NodeMTBF > 0 {
		for _, n := range inj.clu.Nodes {
			inj.scheduleNodeLoss(n, inj.root.Fork("nodeloss-"+n.Name))
		}
	}
	for _, f := range inj.prof.Script {
		inj.scheduleScripted(f)
	}
}

// expired reports whether fault generation should stop: every job terminal,
// or past the profile horizon.
func (inj *Injector) expired() bool {
	if inj.pool.Done() {
		return true
	}
	return inj.prof.Horizon > 0 && inj.eng.Now() >= inj.prof.Horizon
}

// next draws the interval to the next event of an MTBF process, always at
// least one tick so a tiny mean cannot wedge the engine at one instant.
func next(r *rng.Source, mtbf units.Tick) units.Tick {
	d := units.Tick(r.Exp(float64(mtbf)))
	if d < 1 {
		d = 1
	}
	return d
}

// scheduleDeviceFault runs one device's failure/repair renewal process.
func (inj *Injector) scheduleDeviceFault(u *cluster.DeviceUnit, r *rng.Source) {
	inj.eng.After(next(r, inj.prof.DeviceMTBF), func() {
		if inj.expired() {
			return
		}
		if u.Device.Down() {
			// Already down (overlapping node loss): skip this renewal.
			inj.scheduleDeviceFault(u, r)
			return
		}
		inj.failDevice(u, "device_fail")
		inj.stats.DeviceFailures++
		inj.eng.After(inj.prof.DeviceRepair, func() {
			inj.repairDevice(u, "device_repair")
			inj.scheduleDeviceFault(u, r)
		})
	})
}

// scheduleNodeLoss runs one node's loss/repair renewal process: all devices
// fail and all of the node's machines leave matchmaking until the repair.
func (inj *Injector) scheduleNodeLoss(n *cluster.Node, r *rng.Source) {
	inj.eng.After(next(r, inj.prof.NodeMTBF), func() {
		if inj.expired() {
			return
		}
		inj.stats.NodeLosses++
		if inj.o != nil {
			inj.o.Emit(inj.eng.Now(), obs.LayerFaults, "node_loss", obs.Str("node", n.Name))
		}
		for _, u := range n.Devices {
			if m := inj.machineOf[u]; m != nil {
				inj.pool.SetOffline(m, true)
			}
			if !u.Device.Down() {
				inj.failDevice(u, "device_fail")
			}
		}
		inj.eng.After(inj.prof.NodeRepair, func() {
			if inj.o != nil {
				inj.o.Emit(inj.eng.Now(), obs.LayerFaults, "node_repair", obs.Str("node", n.Name))
			}
			for _, u := range n.Devices {
				if m := inj.machineOf[u]; m != nil {
					inj.pool.SetOffline(m, false)
				}
				inj.repairDevice(u, "device_repair")
			}
			inj.pool.PokeNegotiation()
			inj.scheduleNodeLoss(n, r)
		})
	})
}

// scheduleOffloadFault runs one device's transient-fault renewal process:
// each event kills one uniformly chosen process with a running offload.
func (inj *Injector) scheduleOffloadFault(u *cluster.DeviceUnit, r *rng.Source) {
	inj.eng.After(next(r, inj.prof.OffloadFaultMTBF), func() {
		if inj.expired() {
			return
		}
		if victims := u.Device.RunningProcs(); len(victims) > 0 {
			victim := victims[r.Intn(len(victims))]
			inj.stats.OffloadKills++
			if inj.o != nil {
				inj.o.Emit(inj.eng.Now(), obs.LayerFaults, "offload_fault",
					obs.Str("device", u.SlotName), obs.Int("job", victim.Job.ID))
			}
			u.Device.Kill(victim, phi.KillOffloadFault)
			if u.Cosmic != nil {
				u.Cosmic.Recover()
			}
		}
		inj.scheduleOffloadFault(u, r)
	})
}

// scheduleScripted injects one exactly-timed device failure.
func (inj *Injector) scheduleScripted(f DeviceFault) {
	u := inj.unitBySlot(f.Slot)
	inj.eng.At(f.At, func() {
		inj.failDevice(u, "device_fail")
		inj.stats.DeviceFailures++
		if f.Repair > 0 {
			inj.eng.After(f.Repair, func() {
				inj.repairDevice(u, "device_repair")
			})
		}
	})
}

func (inj *Injector) unitBySlot(slot string) *cluster.DeviceUnit {
	for _, u := range inj.clu.Units {
		if u.SlotName == slot {
			return u
		}
	}
	panic("faults: no device unit named " + slot)
}

func (inj *Injector) failDevice(u *cluster.DeviceUnit, kind string) {
	evicted := u.Fail(phi.KillDeviceFailure)
	inj.stats.Evictions += evicted
	if inj.o != nil {
		inj.o.Emit(inj.eng.Now(), obs.LayerFaults, kind,
			obs.Str("device", u.SlotName), obs.Int("evicted", evicted))
	}
}

func (inj *Injector) repairDevice(u *cluster.DeviceUnit, kind string) {
	u.Repair()
	inj.stats.Repairs++
	if inj.o != nil {
		inj.o.Emit(inj.eng.Now(), obs.LayerFaults, kind, obs.Str("device", u.SlotName))
	}
	inj.pool.PokeNegotiation()
}

// TriggerDelay implements condor.NegotiationFaults: exponential jitter on
// every negotiation trigger.
func (inj *Injector) TriggerDelay() units.Tick {
	if inj.prof.NegotiationJitter <= 0 {
		return 0
	}
	inj.stats.JitteredTriggers++
	return units.Tick(inj.negRand.Exp(float64(inj.prof.NegotiationJitter)))
}

// CycleRestart implements condor.NegotiationFaults: with probability
// NegotiationRestartProb the cycle aborts and reruns after the restart
// delay. Independent draws, so a run cannot restart forever; once every job
// is terminal the fault stops firing so the engine can drain.
func (inj *Injector) CycleRestart() (units.Tick, bool) {
	if inj.prof.NegotiationRestartProb <= 0 || inj.pool.Done() {
		return 0, false
	}
	if inj.negRand.Float64() >= inj.prof.NegotiationRestartProb {
		return 0, false
	}
	inj.stats.Restarts++
	return inj.prof.NegotiationRestartDelay, true
}
