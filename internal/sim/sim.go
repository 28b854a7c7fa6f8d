// Package sim implements the deterministic discrete-event engine that drives
// the cluster simulation.
//
// Every component in the system — Xeon Phi devices, COSMIC offload queues,
// Condor negotiation cycles, job phase transitions — advances by scheduling
// events on a single Engine. The engine maintains a priority queue of
// events ordered by (time, insertion sequence); the sequence number breaks
// ties so that two events at the same instant always fire in the order they
// were scheduled, which makes simulations bit-for-bit reproducible across
// runs and platforms.
//
// An event is a Handler and a tag: when the event fires, the engine calls
// h.Fire(tag). A component that schedules the same kinds of continuation
// over and over (a job's phase chain, a device's completion tick, an
// offload's end notification) implements Handler once and tells its
// continuations apart by tag, so scheduling them allocates nothing (AtH,
// AfterH). The closure entry points At, After, AtTimer and AfterTimer wrap
// the func in a Handler whose Fire ignores the tag; the conversion does not
// allocate, so they allocate only what the closure itself does and share
// the one dispatch path.
package sim

import (
	"fmt"

	"phishare/internal/units"
)

// Handler receives events: Fire runs when an event scheduled with the
// handler comes due, with the tag it was scheduled with.
type Handler interface {
	Fire(tag uint64)
}

// funcHandler adapts a closure to Handler; the tag is ignored.
type funcHandler func()

func (f funcHandler) Fire(uint64) { f() }

// event is a scheduled handler call.
type event struct {
	at units.Tick
	// seq is the scheduling order: the engine's counter at the schedule
	// call. It breaks ties between events at the same instant.
	seq uint64
	h   Handler
	tag uint64
	// tm, when non-nil, makes this a cancelable timer event: Timer.Stop
	// removes the event from the heap, and the Timer struct returns to the
	// free list once the event fires or is stopped.
	tm *Timer
	// idx is the event's current position in the heap, maintained by every
	// sift so Timer.Stop can remove a queued event in O(log n). -1 while
	// the event is not queued (executing or on the free list).
	idx int
}

// eventHeap is a binary min-heap of events ordered by time, then by
// insertion order. The heap code is inlined (rather than going through
// container/heap's interface) so pushes and pops stay monomorphic and
// allocation-free; the (at, seq) key is a total order, so the pop sequence
// is identical to container/heap's regardless of internal layout.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

// siftUp restores the heap property upward from position j.
func (h eventHeap) siftUp(j int) {
	for j > 0 {
		parent := (j - 1) / 2
		if !h.less(j, parent) {
			break
		}
		h.swap(j, parent)
		j = parent
	}
}

// siftDown restores the heap property downward from position j.
func (h eventHeap) siftDown(j int) {
	n := len(h)
	for {
		l, r := 2*j+1, 2*j+2
		smallest := j
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == j {
			break
		}
		h.swap(j, smallest)
		j = smallest
	}
}

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	ev.idx = len(*h) - 1
	(*h).siftUp(ev.idx)
}

func (h *eventHeap) pop() *event {
	return h.remove(0)
}

// remove extracts the event at heap position i (the minimum when i == 0),
// preserving the heap property. The removed event's idx is set to -1.
func (h *eventHeap) remove(i int) *event {
	old := *h
	n := len(old) - 1
	ev := old[i]
	ev.idx = -1
	old[i] = old[n]
	old[n] = nil
	old = old[:n]
	*h = old
	if i < n {
		moved := old[i] // the relocated last element
		moved.idx = i
		// The relocated event may violate the property in either direction
		// (it came from an unrelated subtree when i is mid-heap).
		old.siftDown(i)
		old.siftUp(moved.idx)
	}
	return ev
}

// Engine is a discrete-event simulation engine.
// The zero value is ready to use, with the clock at 0.
type Engine struct {
	now    units.Tick
	events eventHeap
	// free is the event free list: fired events return here and are reused
	// by the next At, so a steady-state simulation stops allocating per
	// event entirely (the engine processes hundreds of thousands of events
	// per run; see BenchmarkSimEngine).
	free   []*event
	tmFree []*Timer
	seq    uint64
	steps  uint64
	// zeroDelay counts events scheduled for the current instant.
	zeroDelay uint64
	// MaxSteps, if non-zero, bounds the number of events processed by Run;
	// exceeding it panics. It is a guard against accidental event loops
	// (e.g. a scheduler that reschedules itself at the current instant).
	MaxSteps uint64
	// AfterStep, if set, runs after every processed event, once the event's
	// callback has returned. The invariant checker (internal/faults) uses it
	// to audit conservation laws at every event boundary. The hook must be
	// read-only with respect to simulated outcomes: it is not an event, so
	// it consumes no sequence numbers and cannot reorder anything, but a
	// hook that mutates component state would still corrupt the run. A nil
	// hook costs one comparison per step.
	AfterStep func()
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() units.Tick { return e.now }

// Steps reports how many events have been processed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) }

// ZeroDelay reports how many events have been scheduled for the instant
// they were scheduled at (After(0, ...) and its kin): the same-instant
// traffic that fires in scheduling order behind whatever is running.
func (e *Engine) ZeroDelay() uint64 { return e.zeroDelay }

// AtH schedules h.Fire(tag) at absolute time t. Scheduling in the past
// panics: a component asking for time travel is always a bug in the
// caller. The event comes from the engine's free list, so a steady-state
// caller whose handler is a long-lived value allocates nothing.
func (e *Engine) AtH(t units.Tick, h Handler, tag uint64) { e.schedule(t, h, tag, nil) }

// AfterH schedules h.Fire(tag) d ticks from now. Negative d panics.
func (e *Engine) AfterH(d units.Tick, h Handler, tag uint64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.schedule(e.now+d, h, tag, nil)
}

// At schedules fn to run at absolute time t, like AtH with a handler that
// calls fn. Scheduling in the past panics.
func (e *Engine) At(t units.Tick, fn func()) { e.schedule(t, funcHandler(fn), 0, nil) }

// After schedules fn to run d ticks from now. Negative d panics.
func (e *Engine) After(d units.Tick, fn func()) { e.AfterH(d, funcHandler(fn), 0) }

func (e *Engine) schedule(t units.Tick, h Handler, tag uint64, tm *Timer) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled at %v, before now %v", t, e.now))
	}
	if t == e.now {
		e.zeroDelay++
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.h, ev.tag, ev.tm = t, e.seq, h, tag, tm
	if tm != nil {
		tm.ev = ev
	}
	e.events.push(ev)
}

func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// Run processes events until the queue is empty and returns the final
// clock value. Events may schedule further events.
func (e *Engine) Run() units.Tick {
	for len(e.events) > 0 {
		e.step()
	}
	return e.now
}

// RunUntil processes events with time <= t, then advances the clock to t
// (if it is not already past it) and returns. Events scheduled at exactly t
// are processed. Component tests use it to step their fixtures mid-flight.
func (e *Engine) RunUntil(t units.Tick) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
}

func (e *Engine) step() {
	ev := e.events.pop()
	if ev.at < e.now {
		panic("sim: event heap corrupted: time went backwards")
	}
	e.now = ev.at
	e.steps++
	if e.MaxSteps != 0 && e.steps > e.MaxSteps {
		panic(fmt.Sprintf("sim: exceeded MaxSteps=%d at t=%v (runaway event loop?)", e.MaxSteps, e.now))
	}
	h, tag, tm := ev.h, ev.tag, ev.tm
	// Recycle before running the handler would be wrong: Fire may panic and
	// leave a half-cleared event reachable. Release after it returns; the
	// handler's own scheduling draws from the free list populated by
	// earlier steps.
	if tm != nil {
		tm.ev = nil // off the heap: a Stop from inside Fire must not remove
		if !tm.stopped {
			h.Fire(tag)
		}
		ev.tm = nil
		e.tmFree = append(e.tmFree, tm)
	} else {
		h.Fire(tag)
	}
	ev.h = nil // drop the handler so a closure's captures can be collected
	e.free = append(e.free, ev)
	if e.AfterStep != nil {
		e.AfterStep()
	}
}

// Timer is a cancelable scheduled event. It is used by components that may
// need to retract a pending action, e.g. the PCIe link retracting a DMA
// completion tick when the in-flight transfer set changes, or the Condor
// negotiator retracting a superseded negotiation trigger.
//
// Stop removes the queued event from the heap, so a stopped timer
// costs nothing at its former instant — no dead closure survives in the
// queue (Pending drops immediately).
//
// Timers are pooled: once a timer fires or is stopped, the struct returns
// to the engine's free list and the next AtTimer may hand it out again. A
// caller must therefore drop its handle once the timer has fired or been
// stopped — calling Stop on a spent handle may cancel an unrelated,
// recycled timer. Every current caller clears its handle in the callback
// (or stops the timer and nils the handle in the same breath), which is the
// pattern to keep.
type Timer struct {
	stopped bool
	// ev is the queued event, nil once the event fired or was removed.
	ev *event
	// eng is the owning engine, for free-list access when Stop removes the
	// event.
	eng *Engine
}

// AtTimer schedules fn at absolute time t and returns a handle that can stop
// it. A stopped timer's callback is silently skipped when its time arrives.
func (e *Engine) AtTimer(t units.Tick, fn func()) *Timer {
	tm := e.allocTimer()
	e.schedule(t, funcHandler(fn), 0, tm)
	return tm
}

// AfterTimer schedules fn after delay d and returns a cancelable handle.
func (e *Engine) AfterTimer(d units.Tick, fn func()) *Timer {
	return e.AtTimer(e.now+d, fn)
}

func (e *Engine) allocTimer() *Timer {
	if n := len(e.tmFree); n > 0 {
		tm := e.tmFree[n-1]
		e.tmFree[n-1] = nil
		e.tmFree = e.tmFree[:n-1]
		tm.stopped = false
		tm.ev = nil
		tm.eng = e
		return tm
	}
	return &Timer{eng: e}
}

// Stop cancels the timer and removes its event from the heap, so
// neither struct lingers until the instant passes. Stopping a timer whose
// callback is currently executing only marks it stopped (the event is
// already off the heap). Stopping a spent handle is a caller bug (the
// struct may have been recycled — see the Timer doc).
func (t *Timer) Stop() {
	t.stopped = true
	ev := t.ev
	if ev == nil {
		return
	}
	t.ev = nil
	ev.tm = nil
	ev.h = nil
	e := t.eng
	e.events.remove(ev.idx)
	e.free = append(e.free, ev)
	e.tmFree = append(e.tmFree, t)
}

// Stopped reports whether Stop has been called.
func (t *Timer) Stopped() bool { return t.stopped }
