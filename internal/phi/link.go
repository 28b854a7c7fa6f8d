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
	// tick is onTick, bound once so replan does not allocate a method
	// value per completion timer.
	tick func()

	// Completion-tick scratch and the transfer-record free list, as in
	// Device: a steady-state link allocates nothing per transfer.
	finishedScratch []*transfer
	stillScratch    []*transfer
	free            []*transfer

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
	// h and tag receive the completion notification.
	h   sim.Handler
	tag uint64
}

// DefaultLinkBandwidthMBps is PCIe gen2 x16's practical throughput.
const DefaultLinkBandwidthMBps = 6000.0

// NewLink creates a link with the given bandwidth in MB/s.
func NewLink(eng *sim.Engine, bandwidthMBps float64) *Link {
	if bandwidthMBps <= 0 {
		panic(fmt.Sprintf("phi: non-positive link bandwidth %v", bandwidthMBps))
	}
	l := &Link{
		eng:       eng,
		bandwidth: bandwidthMBps / float64(units.Second), // MB per tick
	}
	l.tick = l.onTick
	return l
}

// Stats returns activity counters.
func (l *Link) Stats() LinkStats { return l.stats }

// InFlight is the number of active transfers.
func (l *Link) InFlight() int { return len(l.transfers) }

// Transfer moves size MB across the link; an event at the instant it
// completes calls h.Fire(tag). Zero-size transfers complete immediately
// (asynchronously, preserving event ordering).
func (l *Link) Transfer(size units.MB, h sim.Handler, tag uint64) {
	if size < 0 {
		panic(fmt.Sprintf("phi: negative transfer size %v", size))
	}
	if size == 0 {
		l.eng.AtH(l.eng.Now(), h, tag)
		return
	}
	l.advance()
	t := l.alloc()
	t.remaining, t.h, t.tag = float64(size), h, tag
	l.transfers = append(l.transfers, t)
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
	l.timer = l.eng.AfterTimer(dt, l.tick)
}

func (l *Link) onTick() {
	l.timer = nil
	l.advance()
	finished := l.finishedScratch[:0]
	still := l.stillScratch[:0]
	for _, t := range l.transfers {
		if t.remaining <= workEpsilon {
			finished = append(finished, t)
		} else {
			still = append(still, t)
		}
	}
	// Swap buffers: the old transfer list becomes the next tick's scratch.
	l.stillScratch = l.transfers[:0]
	l.transfers = still
	l.finishedScratch = finished
	for _, t := range finished {
		l.eng.AtH(l.eng.Now(), t.h, t.tag)
		*t = transfer{}
		l.free = append(l.free, t)
	}
	l.replan()
}

func (l *Link) alloc() *transfer {
	if n := len(l.free); n > 0 {
		t := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return t
	}
	return &transfer{}
}
