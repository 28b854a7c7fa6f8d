// Package units defines the scalar quantities shared by every layer of the
// simulator: simulated time (Tick), coprocessor memory (MB), and hardware
// thread counts. Keeping them as distinct named types catches unit-mixing
// bugs at compile time (e.g. passing a memory amount where a duration is
// expected) and gives every quantity a single formatting rule.
package units

import (
	"fmt"
	"time"
)

// Tick is a point in (or span of) simulated time, in milliseconds.
//
// The discrete-event engine advances a Tick clock; all durations in job phase
// templates, negotiation cycles and dispatch latencies are Ticks. Results are
// usually reported in seconds (the paper's makespan unit) via Seconds.
type Tick int64

// Common durations.
const (
	Millisecond Tick = 1
	Second      Tick = 1000 * Millisecond
	Minute      Tick = 60 * Second
	Hour        Tick = 60 * Minute
)

// Seconds converts t to floating-point seconds.
func (t Tick) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts t to a time.Duration (for display only; the simulator
// never consults wall-clock time).
func (t Tick) Duration() time.Duration { return time.Duration(t) * time.Millisecond }

// String formats the tick as a duration, e.g. "2.5s".
func (t Tick) String() string { return t.Duration().String() }

// MB is an amount of coprocessor memory in mebibytes.
//
// The Xeon Phi 5110P used in the paper has 8 GB (8192 MB) of device memory;
// job requirements in Table I range from 300 MB to 3400 MB.
type MB int

// GB returns n gibibytes as MB.
func GB(n int) MB { return MB(n) * 1024 }

// String formats the amount, preferring GB for round multiples.
func (m MB) String() string {
	if m >= 1024 && m%1024 == 0 {
		return fmt.Sprintf("%dGB", int(m)/1024)
	}
	return fmt.Sprintf("%dMB", int(m))
}

// Threads is a count of Xeon Phi hardware threads. A 60-core device exposes
// 240 hardware threads (4 per core).
type Threads int

// Cores returns the number of physical cores needed to host t threads under
// COSMIC-style affinitization (4 threads per core, rounded up).
func (t Threads) Cores() int {
	if t <= 0 {
		return 0
	}
	return (int(t) + 3) / 4
}

// String formats the thread count.
func (t Threads) String() string { return fmt.Sprintf("%dT", int(t)) }
