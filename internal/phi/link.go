package phi

import (
	"fmt"
	"math"

	"phishare/internal/sim"
	"phishare/internal/units"
)

// Link models the host↔coprocessor PCIe interconnect that MPSS's SCIF/COI
// layers move offload buffers across (§II-B). Every offload pragma with
// in/out clauses performs DMA transfers before and after the kernel runs
// (Fig. 1's `in(a: length(SIZE))...`); concurrent transfers from co-resident
// jobs share the link's bandwidth.
//
// The sharing model is processor sharing, like the device's compute model:
// n in-flight transfers each progress at bandwidth/n. A 5110P-era host
// moves ~6 GB/s over PCIe gen2 x16.
//
// The link is a per-node resource: all devices (and all jobs) on one
// compute server share it. Transfers consume no coprocessor threads — DMA
// runs while cores are free — so COSMIC's offload admission governs only
// the compute section.
type Link struct {
	eng       *sim.Engine
	bandwidth float64 // MB per tick

	transfers   []*transfer
	lastAdvance units.Tick
	timer       *sim.Timer

	stats LinkStats
}

// LinkStats counts link activity.
type LinkStats struct {
	Transfers    int
	BytesMoved   units.MB
	PeakInFlight int
}

type transfer struct {
	remaining float64 // MB
	done      func()
}

// DefaultLinkBandwidthMBps is PCIe gen2 x16's practical throughput.
const DefaultLinkBandwidthMBps = 6000.0

// NewLink creates a link with the given bandwidth in MB/s.
func NewLink(eng *sim.Engine, bandwidthMBps float64) *Link {
	if bandwidthMBps <= 0 {
		panic(fmt.Sprintf("phi: non-positive link bandwidth %v", bandwidthMBps))
	}
	return &Link{
		eng:       eng,
		bandwidth: bandwidthMBps / float64(units.Second), // MB per tick
	}
}

// Stats returns activity counters.
func (l *Link) Stats() LinkStats { return l.stats }

// InFlight is the number of active transfers.
func (l *Link) InFlight() int { return len(l.transfers) }

// Transfer moves size MB across the link and calls done on completion.
// Zero-size transfers complete immediately (asynchronously, preserving
// event ordering).
func (l *Link) Transfer(size units.MB, done func()) {
	if size < 0 {
		panic(fmt.Sprintf("phi: negative transfer size %v", size))
	}
	if size == 0 {
		l.eng.After(0, done)
		return
	}
	l.advance()
	l.transfers = append(l.transfers, &transfer{remaining: float64(size), done: done})
	l.stats.Transfers++
	l.stats.BytesMoved += size
	if len(l.transfers) > l.stats.PeakInFlight {
		l.stats.PeakInFlight = len(l.transfers)
	}
	l.replan()
}

// rate is the per-transfer progress in MB per tick.
func (l *Link) rate() float64 {
	if len(l.transfers) == 0 {
		return l.bandwidth
	}
	return l.bandwidth / float64(len(l.transfers))
}

func (l *Link) advance() {
	now := l.eng.Now()
	elapsed := now - l.lastAdvance
	l.lastAdvance = now
	if elapsed > 0 && len(l.transfers) > 0 {
		r := l.rate()
		for _, t := range l.transfers {
			t.remaining -= float64(elapsed) * r
		}
	}
}

func (l *Link) replan() {
	if l.timer != nil {
		l.timer.Stop()
		l.timer = nil
	}
	if len(l.transfers) == 0 {
		return
	}
	min := math.Inf(1)
	for _, t := range l.transfers {
		if t.remaining < min {
			min = t.remaining
		}
	}
	if min < 0 {
		min = 0
	}
	dt := units.Tick(math.Ceil(min / l.rate()))
	l.timer = l.eng.AfterTimer(dt, l.onTick)
}

func (l *Link) onTick() {
	l.timer = nil
	l.advance()
	var still []*transfer
	var finished []*transfer
	for _, t := range l.transfers {
		if t.remaining <= workEpsilon {
			finished = append(finished, t)
		} else {
			still = append(still, t)
		}
	}
	l.transfers = still
	for _, t := range finished {
		done := t.done
		l.eng.After(0, done)
	}
	l.replan()
}
