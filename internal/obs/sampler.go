package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"phishare/internal/sim"
	"phishare/internal/units"
)

// Sampler records registered probe functions at a fixed simulated-time
// interval, producing aligned time series for CSV export and dashboard
// sparklines.
//
// Determinism: sampler ticks are ordinary engine events, and probes are
// read-only, so attaching a sampler cannot change simulated outcomes. Ticks
// consume insertion-sequence numbers, but the (time, seq) event order is
// total and seq is monotonic in scheduling order, so the relative order of
// every pre-existing event pair is preserved. Each tick reschedules itself
// only while other events remain queued (Engine.Pending > 0 after the tick
// pops); once the simulation's own queue drains, the sampler stops and
// Engine.Run terminates exactly as it would have without it.
type Sampler struct {
	eng      *sim.Engine
	interval units.Tick
	names    []string
	fns      []func() float64
	times    []units.Tick
	rows     [][]float64
	started  bool
}

// NewSampler builds a sampler that ticks every interval on eng. Probes are
// added with Probe; nothing is scheduled until Start.
func NewSampler(eng *sim.Engine, interval units.Tick) *Sampler {
	if eng == nil {
		panic("obs: NewSampler requires an engine")
	}
	if interval <= 0 {
		panic(fmt.Sprintf("obs: sample interval must be positive, got %v", interval))
	}
	return &Sampler{eng: eng, interval: interval}
}

// Probe registers a named read-only series source. Must be called before
// Start. Safe on a nil sampler.
func (s *Sampler) Probe(name string, fn func() float64) {
	if s == nil {
		return
	}
	if s.started {
		panic("obs: Probe after Start")
	}
	s.names = append(s.names, name)
	s.fns = append(s.fns, fn)
}

// Start records an initial sample at the current sim time and schedules the
// periodic tick. A nil sampler, or one with no probes, does nothing.
func (s *Sampler) Start() {
	if s == nil || len(s.fns) == 0 || s.started {
		return
	}
	s.started = true
	s.record()
	s.eng.AfterH(s.interval, s, 0)
}

// Fire is the sampler's tick, a tagged engine event on the sampler itself
// so that scheduling it allocates nothing.
func (s *Sampler) Fire(uint64) {
	s.record()
	// Reschedule only while the simulation itself still has work queued;
	// when this tick was the last event, the run is over.
	if s.eng.Pending() > 0 {
		s.eng.AfterH(s.interval, s, 0)
	}
}

func (s *Sampler) record() {
	row := make([]float64, len(s.fns))
	for i, fn := range s.fns {
		row[i] = fn()
	}
	s.times = append(s.times, s.eng.Now())
	s.rows = append(s.rows, row)
}

// Samples returns the number of recorded sample rows.
func (s *Sampler) Samples() int {
	if s == nil {
		return 0
	}
	return len(s.rows)
}

// WriteCSV writes the sampled series as one wide CSV: a time_ms column
// followed by one column per probe in registration order. A nil sampler
// writes nothing.
func (s *Sampler) WriteCSV(w io.Writer) error {
	if s == nil {
		return nil
	}
	var sb strings.Builder
	sb.WriteString("time_ms")
	for _, n := range s.names {
		sb.WriteByte(',')
		sb.WriteString(csvQuote(n))
	}
	sb.WriteByte('\n')
	for i, t := range s.times {
		sb.WriteString(strconv.FormatInt(int64(t), 10))
		for _, v := range s.rows[i] {
			sb.WriteByte(',')
			sb.WriteString(formatFloat(v))
		}
		sb.WriteByte('\n')
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// csvQuote quotes a header cell when it contains CSV metacharacters —
// series names like `phi_busy_cores{device="mic0@node1"}` contain commas
// and quotes.
func csvQuote(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
