package phi

import (
	"testing"

	"phishare/internal/sim"
	"phishare/internal/units"
)

func TestLinkSingleTransfer(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 6000) // 6 MB/ms
	var end units.Tick
	l.Transfer(600, func() { end = eng.Now() })
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
		l.Transfer(600, func() { ends = append(ends, eng.Now()) })
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
	l.Transfer(1200, func() { aEnd = eng.Now() })
	eng.At(100, func() {
		l.Transfer(300, func() { bEnd = eng.Now() })
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
	l.Transfer(0, func() { fired = true })
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
	l.Transfer(-1, func() {})
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
		l.Transfer(60, func() {})
	}
	if l.InFlight() != 3 {
		t.Errorf("in flight %d", l.InFlight())
	}
	eng.Run()
	if l.Stats().PeakInFlight != 3 {
		t.Errorf("peak %d", l.Stats().PeakInFlight)
	}
	if l.InFlight() != 0 {
		t.Error("transfers leaked")
	}
}
