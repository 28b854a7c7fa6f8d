package phi

import (
	"testing"

	"phishare/internal/sim"
	"phishare/internal/units"
)

// fnHandler adapts a closure to a transfer's completion notification.
type fnHandler func()

func (f fnHandler) Fire(uint64) { f() }

// startTransfer starts a transfer whose completion runs done.
func startTransfer(l *Link, size units.MB, done func()) { l.Transfer(size, fnHandler(done), 0) }

func TestLinkSingleTransfer(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 6000) // 6 MB/ms
	var end units.Tick
	startTransfer(l, 600, func() { end = eng.Now() })
	eng.Run()
	if end != 100 { // 600 MB at 6 MB/ms
		t.Errorf("transfer ended at %v, want 100", end)
	}
	if s := l.Stats(); s.Transfers != 1 || s.BytesMoved != 600 {
		t.Errorf("stats %+v", s)
	}
}

func TestLinkSharedBandwidth(t *testing.T) {
	// Two equal transfers: each gets half the bandwidth and takes twice
	// as long.
	eng := sim.New()
	l := NewLink(eng, 6000)
	var ends []units.Tick
	for i := 0; i < 2; i++ {
		startTransfer(l, 600, func() { ends = append(ends, eng.Now()) })
	}
	eng.Run()
	for _, e := range ends {
		if e != 200 {
			t.Errorf("shared transfer ended at %v, want 200", e)
		}
	}
}

func TestLinkStaggeredSharing(t *testing.T) {
	// A (1200 MB) starts alone; B (300 MB) joins at t=100 when A has
	// 600 MB left. Shared rate 3 MB/ms: B finishes at 200, A has 300 left,
	// full rate again, done at 250.
	eng := sim.New()
	l := NewLink(eng, 6000)
	var aEnd, bEnd units.Tick
	startTransfer(l, 1200, func() { aEnd = eng.Now() })
	eng.At(100, func() {
		startTransfer(l, 300, func() { bEnd = eng.Now() })
	})
	eng.Run()
	if bEnd != 200 {
		t.Errorf("B ended at %v, want 200", bEnd)
	}
	if aEnd != 250 {
		t.Errorf("A ended at %v, want 250", aEnd)
	}
}

func TestLinkZeroTransferCompletesAsync(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 6000)
	fired := false
	startTransfer(l, 0, func() { fired = true })
	if fired {
		t.Error("zero transfer completed synchronously")
	}
	eng.Run()
	if !fired {
		t.Error("zero transfer never completed")
	}
}

func TestLinkNegativeSizePanics(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 6000)
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	startTransfer(l, -1, func() {})
}

func TestNewLinkValidatesBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero bandwidth accepted")
		}
	}()
	NewLink(sim.New(), 0)
}

func TestLinkPeakInFlight(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 6000)
	for i := 0; i < 3; i++ {
		startTransfer(l, 60, func() {})
	}
	if len(l.transfers) != 3 {
		t.Errorf("in flight %d", len(l.transfers))
	}
	eng.Run()
	if l.Stats().PeakInFlight != 3 {
		t.Errorf("peak %d", l.Stats().PeakInFlight)
	}
	if len(l.transfers) != 0 {
		t.Error("transfers leaked")
	}
}

// countHandler counts completion notifications.
type countHandler struct{ n int }

func (c *countHandler) Fire(uint64) { c.n++ }

// TestLinkSteadyStateAllocatesNothing: once the transfer-record free list
// and the tick scratch are warm, overlapping transfers allocate nothing.
func TestLinkSteadyStateAllocatesNothing(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 6000)
	h := &countHandler{}
	burst := func() {
		l.Transfer(600, h, 0)
		l.Transfer(300, h, 2)
		l.Transfer(900, h, 4)
		eng.Run()
	}
	allocs := testing.AllocsPerRun(100, burst)
	if allocs > 0 {
		t.Errorf("steady-state transfers allocate %.1f objects per burst, want 0", allocs)
	}
	if h.n != 3*101 {
		t.Errorf("%d completions, want %d", h.n, 3*101)
	}
}
