// Package cluster assembles the simulated Xeon Phi compute cluster: nodes,
// the coprocessor devices inside them, and the optional per-device COSMIC
// managers. It is the hardware inventory the Condor layer advertises and
// the schedulers pack.
//
// The paper's testbed is 8 nodes with one 8 GB Xeon Phi each (§V); the
// footprint experiments shrink the node count, and the Config supports
// multiple devices per node for the general formulation of §IV-B
// ("N identical compute servers each having D Xeon Phi coprocessors").
package cluster

import (
	"fmt"

	"phishare/internal/cosmic"
	"phishare/internal/job"
	"phishare/internal/metrics"
	"phishare/internal/phi"
	"phishare/internal/rng"
	"phishare/internal/sim"
	"phishare/internal/units"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the number of compute servers (paper default: 8).
	Nodes int
	// DevicesPerNode is D in the paper's formulation (paper testbed: 1).
	DevicesPerNode int
	// Device is the coprocessor model (default: the 5110P).
	Device phi.Config
	// NodeDevices, when non-empty, makes the pool heterogeneous: node n's
	// devices use NodeDevices[n % len(NodeDevices)] instead of Device —
	// mixed coprocessor generations with per-node memory/thread asymmetry.
	// The modulo lets a short class list (e.g. workload.HeterogeneousPool
	// output for a sampled prefix) tile a larger pool deterministically.
	NodeDevices []phi.Config
	// UseCosmic installs a COSMIC manager on every device. Without it the
	// devices run raw MPSS semantics (the MC baseline's node level — and
	// the oversubscription ablation's, when paired with a sharing policy).
	UseCosmic bool
	// CosmicBypass selects first-fit offload dispatch instead of COSMIC's
	// default strict arrival order (the dispatch-discipline ablation).
	CosmicBypass bool
	// LinkBandwidthMBps is each node's PCIe bandwidth to its coprocessors,
	// shared by all its devices' DMA transfers. Default 6000 (gen2 x16).
	LinkBandwidthMBps float64
	// Seed drives device-level randomness (OOM victim selection).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 8
	}
	if c.DevicesPerNode == 0 {
		c.DevicesPerNode = 1
	}
	if c.Device == (phi.Config{}) {
		c.Device = phi.DefaultConfig()
	}
	if c.LinkBandwidthMBps == 0 {
		c.LinkBandwidthMBps = phi.DefaultLinkBandwidthMBps
	}
	return c
}

// DeviceUnit is one schedulable coprocessor: the device plus its optional
// COSMIC manager and its utilization tracker. Its SlotName is the Condor
// slot identity the knapsack scheduler pins jobs to ("slotI@nodeJ").
type DeviceUnit struct {
	SlotName string
	NodeName string
	Device   *phi.Device
	Cosmic   *cosmic.Manager // nil in raw MPSS mode
	Util     *metrics.CoreUtilization
	// Link is the node's PCIe interconnect, shared with the node's other
	// devices.
	Link *phi.Link
	// Engine is the simulation engine the unit's device, COSMIC manager,
	// link and starter-side runner schedule on.
	Engine *sim.Engine
}

// Attach admits a job immediately, through COSMIC when present (bypassing
// its memory admission; see Admit).
func (u *DeviceUnit) Attach(j *job.Job) *phi.Process {
	if u.Cosmic != nil {
		return u.Cosmic.Attach(j)
	}
	return u.Device.Attach(j)
}

// Admit requests admission for a job. Under COSMIC, the job waits until its
// declared memory fits the device (node-level memory admission, §V's "COSMIC
// prevents them from oversubscribing memory"); ready fires when it is
// attached. Raw MPSS has no admission control: ready fires immediately.
func (u *DeviceUnit) Admit(j *job.Job, ready func(*phi.Process)) {
	if u.Cosmic != nil {
		u.Cosmic.Admit(j, ready)
		return
	}
	ready(u.Device.Attach(j))
}

// Offload runs an offload, through COSMIC's admission control when present;
// raw devices start it immediately (§II-B: MPSS schedules offloads with no
// regard for oversubscription). Either way one event at the offload's end
// calls h.Fire(tag|outcome); see phi.OutcomeOf.
func (u *DeviceUnit) Offload(p *phi.Process, threads units.Threads, work units.Tick, h sim.Handler, tag uint64) {
	if u.Cosmic != nil {
		u.Cosmic.Offload(p, threads, work, h, tag)
		return
	}
	u.Device.StartOffload(p, threads, work, h, tag)
}

// Detach removes a job's process.
func (u *DeviceUnit) Detach(p *phi.Process) {
	if u.Cosmic != nil {
		u.Cosmic.Detach(p)
		return
	}
	u.Device.Detach(p)
}

// Fail injects a whole-device failure: every resident process dies with
// reason, and attaches are rejected until Repair. The COSMIC manager (when
// present) is immediately recovered so queued work for dead processes is
// flushed rather than stranded. Returns the number of processes evicted.
func (u *DeviceUnit) Fail(reason phi.KillReason) int {
	n := u.Device.Fail(reason)
	if u.Cosmic != nil {
		u.Cosmic.Recover()
	}
	return n
}

// Repair brings a failed device back into service and re-runs COSMIC
// admission for anything that queued up while it was down.
func (u *DeviceUnit) Repair() {
	u.Device.Repair()
	if u.Cosmic != nil {
		u.Cosmic.Recover()
	}
}

// Node is one compute server.
type Node struct {
	Name    string
	Devices []*DeviceUnit
	// Link is the server's PCIe interconnect to its coprocessors.
	Link *phi.Link
}

// Cluster is the full machine inventory.
type Cluster struct {
	Nodes []*Node
	// Units flattens every device in node-major order; schedulers iterate
	// this for the paper's "for each Xeon Phi device D in cluster" loops.
	Units []*DeviceUnit

	cfg Config
}

// New builds a cluster on the given engine.
func New(eng *sim.Engine, cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 0 || cfg.DevicesPerNode < 0 {
		panic(fmt.Sprintf("cluster: negative size %+v", cfg))
	}
	root := rng.New(cfg.Seed).Fork("cluster")
	c := &Cluster{cfg: cfg}
	for n := 0; n < cfg.Nodes; n++ {
		node := &Node{
			Name: fmt.Sprintf("node%d", n),
			Link: phi.NewLink(eng, cfg.LinkBandwidthMBps),
		}
		devCfg := cfg.Device
		if len(cfg.NodeDevices) > 0 {
			devCfg = cfg.NodeDevices[n%len(cfg.NodeDevices)]
		}
		for d := 0; d < cfg.DevicesPerNode; d++ {
			slot := fmt.Sprintf("slot%d@%s", d+1, node.Name)
			util := metrics.NewCoreUtilization(devCfg.Cores)
			dev := phi.NewDevice(eng, slot, devCfg, root.Fork(slot), util)
			unit := &DeviceUnit{
				SlotName: slot,
				NodeName: node.Name,
				Device:   dev,
				Util:     util,
				Link:     node.Link,
				Engine:   eng,
			}
			if cfg.UseCosmic {
				unit.Cosmic = cosmic.New(eng, dev)
				unit.Cosmic.Bypass = cfg.CosmicBypass
			}
			node.Devices = append(node.Devices, unit)
			c.Units = append(c.Units, unit)
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// Config returns the (defaulted) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// DeviceCount is the total number of coprocessors.
func (c *Cluster) DeviceCount() int { return len(c.Units) }

// Utils collects the per-device utilization trackers.
func (c *Cluster) Utils() []*metrics.CoreUtilization {
	us := make([]*metrics.CoreUtilization, len(c.Units))
	for i, u := range c.Units {
		us[i] = u.Util
	}
	return us
}

// AvgCoreUtilization is the mean per-device core utilization over [0, end]:
// the paper's cluster-wide "average core utilization" metric (§III).
func (c *Cluster) AvgCoreUtilization(end units.Tick) float64 {
	if len(c.Units) == 0 || end <= 0 {
		return 0
	}
	total := 0.0
	for _, u := range c.Units {
		total += u.Util.Utilization(end)
	}
	return total / float64(len(c.Units))
}
