package condor

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"phishare/internal/units"
)

// EventKind classifies job lifecycle events, mirroring the entries HTCondor
// writes to its user log (submit, match, execute, terminate, ...).
type EventKind int

const (
	// EventSubmit: the job entered the schedd queue.
	EventSubmit EventKind = iota
	// EventMatch: matchmaking claimed a machine for the job.
	EventMatch
	// EventExecute: the starter launched the job on its machine.
	EventExecute
	// EventTerminate: the job completed successfully.
	EventTerminate
	// EventCrash: the job's process was killed on the device.
	EventCrash
	// EventResubmit: a crashed job re-entered the queue.
	EventResubmit
	// EventStallAbort: the stall breaker failed an unmatchable job.
	EventStallAbort
)

func (k EventKind) String() string {
	switch k {
	case EventSubmit:
		return "submit"
	case EventMatch:
		return "match"
	case EventExecute:
		return "execute"
	case EventTerminate:
		return "terminate"
	case EventCrash:
		return "crash"
	case EventResubmit:
		return "resubmit"
	case EventStallAbort:
		return "stall-abort"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one job lifecycle record.
type Event struct {
	At      units.Tick
	Kind    EventKind
	JobID   int
	User    string
	Machine string // empty for queue-side events
}

// EventLog collects pool events in order. Attach one via Pool.Log before
// submitting. A nil log costs nothing.
type EventLog struct {
	events []Event
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Append adds an event to the log. The pool records its own events.
//
//philint:ignore deadapi test hook: faults' TestUsageViolationOrderIsDeterministic replays a doctored log
func (l *EventLog) Append(e Event) { l.events = append(l.events, e) }

// Events returns the recorded events in occurrence order.
func (l *EventLog) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// WriteCSV exports the log with a header row.
func (l *EventLog) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_ms", "event", "job", "user", "machine"}); err != nil {
		return err
	}
	for _, e := range l.events {
		rec := []string{
			strconv.FormatInt(int64(e.At), 10),
			e.Kind.String(),
			strconv.Itoa(e.JobID),
			e.User,
			e.Machine,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// record appends an event if a log is attached.
func (p *Pool) record(kind EventKind, q *QueuedJob, machine string) {
	if p.Log == nil {
		return
	}
	p.Log.events = append(p.Log.events, Event{
		At:      p.eng.Now(),
		Kind:    kind,
		JobID:   q.Job.ID,
		User:    q.User,
		Machine: machine,
	})
}
