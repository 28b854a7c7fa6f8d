package cluster

import (
	"testing"

	"phishare/internal/job"
	"phishare/internal/phi"
	"phishare/internal/sim"
	"phishare/internal/units"
)

func TestNewDefaults(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{})
	if len(c.Nodes) != 8 {
		t.Errorf("default nodes = %d, want 8", len(c.Nodes))
	}
	if c.DeviceCount() != 8 {
		t.Errorf("default devices = %d, want 8", c.DeviceCount())
	}
	if c.Units[0].Cosmic != nil {
		t.Error("default cluster has COSMIC enabled")
	}
	if c.Units[0].Device.Config().Memory != units.GB(8) {
		t.Errorf("device memory = %v, want 8GB", c.Units[0].Device.Config().Memory)
	}
}

func TestSlotNaming(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 2, DevicesPerNode: 2})
	want := []string{"slot1@node0", "slot2@node0", "slot1@node1", "slot2@node1"}
	if len(c.Units) != 4 {
		t.Fatalf("units = %d", len(c.Units))
	}
	for i, u := range c.Units {
		if u.SlotName != want[i] {
			t.Errorf("unit %d slot = %q, want %q", i, u.SlotName, want[i])
		}
	}
	if c.Units[2].NodeName != "node1" {
		t.Errorf("NodeName = %q", c.Units[2].NodeName)
	}
}

func TestUseCosmicInstallsManagers(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 2, UseCosmic: true})
	for _, u := range c.Units {
		if u.Cosmic == nil {
			t.Fatal("COSMIC missing")
		}
		if !u.Device.Affinitized {
			t.Error("device not affinitized under COSMIC")
		}
	}
}

// outcomeFunc adapts a closure to an offload's end notification.
type outcomeFunc func(phi.OffloadOutcome)

func (f outcomeFunc) Fire(tag uint64) { f(phi.OutcomeOf(tag)) }

// offload runs an offload on u whose end runs done.
func offload(u *DeviceUnit, p *phi.Process, threads units.Threads, work units.Tick, done func(phi.OffloadOutcome)) {
	u.Offload(p, threads, work, outcomeFunc(done), 0)
}

// fnHandler adapts a closure to a transfer's completion notification.
type fnHandler func()

func (f fnHandler) Fire(uint64) { f() }

// transfer starts a transfer on l whose completion runs done.
func transfer(l *phi.Link, size units.MB, done func()) { l.Transfer(size, fnHandler(done), 0) }

func testJob(id int) *job.Job {
	return &job.Job{
		ID: id, Name: "t", Workload: "t",
		Mem: 500, Threads: 120, ActualPeakMem: 450,
		Phases: []job.Phase{{Kind: job.OffloadPhase, Duration: 1000, Threads: 120}},
	}
}

func TestUnitDelegationCosmic(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 1, UseCosmic: true})
	u := c.Units[0]
	p := u.Attach(testJob(1))
	var end units.Tick
	offload(u, p, 120, 2000, func(o phi.OffloadOutcome) {
		if o != phi.OffloadCompleted {
			t.Errorf("outcome %v", o)
		}
		end = eng.Now()
	})
	eng.Run()
	if end != 2000 {
		t.Errorf("offload end %v", end)
	}
	u.Detach(p)
	if u.Device.ProcessCount() != 0 {
		t.Error("detach did not release process")
	}
}

func TestUnitDelegationRaw(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 1})
	u := c.Units[0]
	// Raw mode: two 240-wide offloads overlap and slow down (no COSMIC).
	p1 := u.Attach(testJob(1))
	p2 := u.Attach(testJob(2))
	var e1 units.Tick
	offload(u, p1, 240, 2000, func(phi.OffloadOutcome) { e1 = eng.Now() })
	offload(u, p2, 240, 2000, func(phi.OffloadOutcome) {})
	eng.Run()
	if e1 != 4000 {
		t.Errorf("raw overlapping offload ended at %v, want 4000 (2x slowdown)", e1)
	}
}

func TestAvgCoreUtilization(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 2, UseCosmic: true})
	// One device fully busy for 1000 of 2000 ticks, the other idle:
	// device utils are 0.5 and 0 -> average 0.25.
	u := c.Units[0]
	p := u.Attach(testJob(1))
	offload(u, p, 240, 1000, func(phi.OffloadOutcome) {})
	eng.Run()
	got := c.AvgCoreUtilization(2000)
	if got != 0.25 {
		t.Errorf("AvgCoreUtilization = %v, want 0.25", got)
	}
}

func TestAvgCoreUtilizationEmpty(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 1})
	if c.AvgCoreUtilization(0) != 0 {
		t.Error("zero-end utilization not 0")
	}
}

func TestUtilsLength(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 3, DevicesPerNode: 2})
	if len(c.Utils()) != 6 {
		t.Errorf("Utils() = %d, want 6", len(c.Utils()))
	}
}

func TestDeterministicDeviceSeeds(t *testing.T) {
	// Same cluster seed => same OOM behaviour; exercised indirectly by
	// checking the per-device rng forks differ between slots but repeat
	// across constructions (smoke test via device IDs).
	engA, engB := sim.New(), sim.New()
	a := New(engA, Config{Nodes: 2, Seed: 5})
	b := New(engB, Config{Nodes: 2, Seed: 5})
	for i := range a.Units {
		if a.Units[i].SlotName != b.Units[i].SlotName {
			t.Fatal("unit ordering not deterministic")
		}
	}
}

func TestDevicesOnOneNodeShareLink(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 2, DevicesPerNode: 2})
	if c.Units[0].Link != c.Units[1].Link {
		t.Error("devices on one node have different links")
	}
	if c.Units[0].Link == c.Units[2].Link {
		t.Error("devices on different nodes share a link")
	}
	if c.Nodes[0].Link == nil {
		t.Error("node link missing")
	}
}

func TestLinkBandwidthConfigurable(t *testing.T) {
	eng := sim.New()
	c := New(eng, Config{Nodes: 1, LinkBandwidthMBps: 1000})
	var end units.Tick
	transfer(c.Units[0].Link, 500, func() { end = eng.Now() })
	eng.Run()
	if end != 500 { // 500 MB at 1 MB/ms
		t.Errorf("transfer at custom bandwidth ended at %v, want 500", end)
	}
}
