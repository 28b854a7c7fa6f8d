package sim

import (
	"testing"

	"phishare/internal/units"
)

func TestRunEmpty(t *testing.T) {
	e := New()
	if final := e.Run(); final != 0 {
		t.Errorf("empty Run ended at %v, want 0", final)
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("events fired in order %v, want [1 2 3]", order)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	e := New()
	var seen []units.Tick
	e.At(100, func() { seen = append(seen, e.Now()) })
	e.At(250, func() { seen = append(seen, e.Now()) })
	final := e.Run()
	if final != 250 {
		t.Errorf("final time %v, want 250", final)
	}
	if len(seen) != 2 || seen[0] != 100 || seen[1] != 250 {
		t.Errorf("observed times %v, want [100 250]", seen)
	}
}

func TestAfterRelative(t *testing.T) {
	e := New()
	var at units.Tick
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestEventsCanScheduleEvents(t *testing.T) {
	e := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			e.After(10, tick)
		}
	}
	e.After(10, tick)
	final := e.Run()
	if count != 5 {
		t.Errorf("chained %d events, want 5", count)
	}
	if final != 50 {
		t.Errorf("final time %v, want 50", final)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []units.Tick
	for _, at := range []units.Tick{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(25) fired %v, want events at 10 and 20", fired)
	}
	if e.Now() != 25 {
		t.Errorf("clock at %v after RunUntil(25)", e.Now())
	}
	e.RunUntil(40) // inclusive boundary
	if len(fired) != 4 {
		t.Errorf("RunUntil(40) left %d fired, want 4 (boundary inclusive)", len(fired))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := New()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Errorf("idle RunUntil left clock at %v, want 500", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := New()
	fired := false
	tm := e.AfterTimer(10, func() { fired = true })
	tm.Stop()
	e.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if !tm.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestTimerFiresWhenNotStopped(t *testing.T) {
	e := New()
	fired := false
	e.AfterTimer(10, func() { fired = true })
	e.Run()
	if !fired {
		t.Error("timer did not fire")
	}
}

func TestTimerStopAfterFireIsNoop(t *testing.T) {
	e := New()
	count := 0
	tm := e.AfterTimer(10, func() { count++ })
	e.Run()
	tm.Stop()
	if count != 1 {
		t.Errorf("timer fired %d times, want 1", count)
	}
}

// TestTimerStopRemovesQueuedEvent pins the true-removal contract: Stop takes
// the event out of the heap immediately (Pending drops) and recycles both
// event and timer, so a churn of start/stop cycles cannot grow the heap.
// Before heap-index tracking, a stopped timer left a dead closure queued
// until its deadline — unbounded growth under supersede-heavy workloads.
func TestTimerStopRemovesQueuedEvent(t *testing.T) {
	e := New()
	base := e.Pending()
	tm := e.AfterTimer(1000, func() { t.Error("stopped timer fired") })
	if e.Pending() != base+1 {
		t.Fatalf("Pending = %d after schedule, want %d", e.Pending(), base+1)
	}
	tm.Stop()
	if e.Pending() != base {
		t.Fatalf("Pending = %d after Stop, want %d (event not removed)", e.Pending(), base)
	}
	// Churn: every start is immediately superseded. With true removal the
	// queue stays at one live event; without it, the heap accrues a dead
	// closure per iteration.
	for i := 0; i < 10_000; i++ {
		tm = e.AfterTimer(units.Tick(1000+i), func() { t.Error("superseded timer fired") })
		tm.Stop()
	}
	if e.Pending() != base {
		t.Fatalf("Pending = %d after churn, want %d", e.Pending(), base)
	}
	// The heap still orders correctly after mid-heap removals interleaved
	// with live events.
	var order []int
	for _, d := range []units.Tick{30, 10, 20} {
		d := d
		e.After(d, func() { order = append(order, int(d)) })
	}
	doomed := e.AfterTimer(15, func() { t.Error("doomed timer fired") })
	doomed.Stop()
	e.Run()
	if len(order) != 3 || order[0] != 10 || order[1] != 20 || order[2] != 30 {
		t.Fatalf("fire order %v, want [10 20 30]", order)
	}
}

// TestTimerChurnThenFire pins timer recycling: after a churn of stopped
// timers, every event and timer struct is back on the free lists (Pending
// returns to its base), and a live timer drawn from those recycled structs
// still fires.
func TestTimerChurnThenFire(t *testing.T) {
	e := New()
	base := e.Pending()
	for i := 0; i < 1000; i++ {
		tm := e.AfterTimer(units.Tick(100+i), func() { t.Error("stopped timer fired") })
		tm.Stop()
	}
	if e.Pending() != base {
		t.Fatalf("Pending = %d after timer churn, want %d", e.Pending(), base)
	}
	fired := false
	e.AfterTimer(5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("live timer did not fire after churned stops")
	}
}

// TestSameTickFIFOFromInsideEvent pins the tie-break for events scheduled
// from inside a running event: an event at the current instant fires after
// every event already queued for that instant, and same-instant children of
// different parents fire in the order their parents scheduled them —
// (time, scheduling order), with no regard for which event did the
// scheduling. Condor's zero-delay dispatch handshakes rely on this order.
func TestSameTickFIFOFromInsideEvent(t *testing.T) {
	e := New()
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }
	e.At(10, func() {
		got = append(got, "a")
		e.After(0, log("a0"))  // same instant, behind b and c
		e.At(20, log("a20"))   // ahead of b's child at 20
		e.After(0, log("a0'")) // behind a0
	})
	e.At(10, func() {
		got = append(got, "b")
		e.At(20, log("b20"))
		e.After(0, func() {
			got = append(got, "b0")
			e.After(0, log("b00")) // grandchild: behind every queued t=10 event
		})
	})
	e.At(10, log("c"))
	e.At(20, log("d20")) // scheduled before any child at 20
	e.Run()
	want := []string{"a", "b", "c", "a0", "a0'", "b0", "b00", "d20", "a20", "b20"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestMaxStepsGuard(t *testing.T) {
	e := New()
	e.MaxSteps = 100
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(1, loop)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop did not trip MaxSteps")
		}
	}()
	e.Run()
}

func TestStepsCounting(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.At(units.Tick(i), func() {})
	}
	e.Run()
	if e.Steps() != 7 {
		t.Errorf("Steps() = %d, want 7", e.Steps())
	}
}

func TestPending(t *testing.T) {
	e := New()
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Errorf("Pending() after Run = %d, want 0", e.Pending())
	}
}

// TestDeterministicReplay runs an identical randomized workload twice and
// requires identical event traces.
func TestDeterministicReplay(t *testing.T) {
	run := func() []units.Tick {
		e := New()
		var trace []units.Tick
		// A little self-perpetuating workload with same-time collisions.
		for i := 0; i < 20; i++ {
			at := units.Tick((i * 7) % 13)
			e.At(at, func() {
				trace = append(trace, e.Now())
				if e.Now() < 40 {
					e.After(3, func() { trace = append(trace, e.Now()) })
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestEventPoolReuse pins the free-list optimization: once the engine has
// warmed up, a steady schedule-fire cycle must not allocate event structs.
func TestEventPoolReuse(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the free list.
	for i := 0; i < 32; i++ {
		e.After(1, fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.After(1, fn)
		e.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule+run allocates %.1f objects/op, want 0", allocs)
	}
}

// TestEventPoolOrderingUnchanged floods the engine through many
// pool-recycled events with colliding timestamps and checks FIFO order
// within an instant survives recycling (seq is rewritten on every reuse).
func TestEventPoolOrderingUnchanged(t *testing.T) {
	e := New()
	var got []int
	for round := 0; round < 50; round++ {
		r := round
		e.At(units.Tick(10*round), func() {
			for k := 0; k < 4; k++ {
				kk := k
				e.After(5, func() { got = append(got, r*10+kk) })
			}
		})
	}
	e.Run()
	if len(got) != 200 {
		t.Fatalf("fired %d events, want 200", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("order violated at %d: %d after %d", i, got[i], got[i-1])
		}
	}
}

// tagLog records the tags it is fired with.
type tagLog struct{ tags []uint64 }

func (l *tagLog) Fire(tag uint64) { l.tags = append(l.tags, tag) }

// TestHandlerEventsShareTheOrder interleaves tagged handler events with
// closures at one instant: both draw from the one sequence counter, so
// they fire in scheduling order, each handler call with its own tag.
func TestHandlerEventsShareTheOrder(t *testing.T) {
	e := New()
	l := &tagLog{}
	e.AtH(5, l, 1)
	e.At(5, func() { l.tags = append(l.tags, 100) })
	e.AfterH(5, l, 2)
	e.At(5, func() {
		e.AfterH(0, l, 3)
		e.AtH(5, l, 4)
	})
	e.Run()
	want := []uint64{1, 100, 2, 3, 4}
	if len(l.tags) != len(want) {
		t.Fatalf("fired %v, want %v", l.tags, want)
	}
	for i := range want {
		if l.tags[i] != want[i] {
			t.Fatalf("fired %v, want %v", l.tags, want)
		}
	}
	// Two events were scheduled for their own instant (the ones scheduled
	// at t=5 from inside the event at t=5).
	if got := e.ZeroDelay(); got != 2 {
		t.Errorf("ZeroDelay() = %d, want 2", got)
	}
}

// TestHandlerEventsAllocateNothing: a long-lived handler's events come from
// the free list, and a closure's conversion to a Handler does not allocate,
// so neither entry point allocates once the engine is warm.
func TestHandlerEventsAllocateNothing(t *testing.T) {
	e := New()
	l := &tagLog{tags: make([]uint64, 0, 1024)}
	fn := func() {}
	e.AfterH(1, l, 0)
	e.After(1, fn)
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		l.tags = l.tags[:0]
		e.AfterH(1, l, 7)
		e.After(1, fn)
		e.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state AfterH+After allocates %.1f objects/op, want 0", allocs)
	}
}
