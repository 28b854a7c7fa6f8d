package obs

import (
	"io"
	"sort"
	"strconv"
	"strings"

	"phishare/internal/units"
)

// Chrome-trace-event export (the JSON format Perfetto and chrome://tracing
// load): each node becomes a process, its host attempts and each coprocessor
// a thread, job attempts and offloads complete ("X") duration events,
// OOM/container kills instant ("i") events. Load the file in
// https://ui.perfetto.dev to scrub through a cell's timeline.
//
// Output is deterministic: processes are sorted by node name, events by
// construction over spans sorted by job id, and the JSON is hand-assembled
// with fixed key order (same policy as Event.AppendJSON).

// WriteChromeTrace renders spans as a Chrome trace-event JSON document.
func WriteChromeTrace(w io.Writer, spans []*Span) error {
	// Collect node → devices. Machines and devices share slot naming
	// ("slotI@nodeJ"); the node is the suffix.
	devs := map[string]map[string]bool{} // node → device set
	node := func(slot string) string {
		if i := strings.IndexByte(slot, '@'); i >= 0 {
			return slot[i+1:]
		}
		return slot
	}
	seen := func(slot string) {
		n := node(slot)
		if devs[n] == nil {
			devs[n] = map[string]bool{}
		}
	}
	for _, s := range spans {
		for _, a := range s.Attempts {
			if a.Machine != "" {
				seen(a.Machine)
			}
			for _, o := range a.Offloads {
				if o.Device != "" {
					seen(o.Device)
					devs[node(o.Device)][o.Device] = true
				}
			}
		}
	}
	nodes := make([]string, 0, len(devs))
	for n := range devs {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	pidOf := map[string]int{}
	type tidKey struct {
		node, dev string
	}
	tidOf := map[tidKey]int{}
	for i, n := range nodes {
		pidOf[n] = i + 1
		ds := make([]string, 0, len(devs[n]))
		for d := range devs[n] {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		tidOf[tidKey{n, ""}] = 1 // host/attempt row
		for j, d := range ds {
			tidOf[tidKey{n, d}] = j + 2
		}
	}

	buf := make([]byte, 0, 4096)
	buf = append(buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	first := true
	emit := func(b []byte) error {
		if !first {
			if _, err := w.Write([]byte{',', '\n'}); err != nil {
				return err
			}
		} else {
			first = false
			if _, err := w.Write([]byte{'\n'}); err != nil {
				return err
			}
		}
		_, err := w.Write(b)
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}

	meta := func(name string, pid, tid int, arg string) []byte {
		b := append([]byte(nil), `{"ph":"M","name":`...)
		b = appendJSONString(b, name)
		b = append(b, `,"pid":`...)
		b = strconv.AppendInt(b, int64(pid), 10)
		if tid >= 0 {
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(tid), 10)
		}
		b = append(b, `,"args":{"name":`...)
		b = appendJSONString(b, arg)
		return append(b, `}}`...)
	}
	for _, n := range nodes {
		pid := pidOf[n]
		if err := emit(meta("process_name", pid, -1, n)); err != nil {
			return err
		}
		if err := emit(meta("thread_name", pid, 1, "host")); err != nil {
			return err
		}
		ds := make([]string, 0, len(devs[n]))
		for d := range devs[n] {
			ds = append(ds, d)
		}
		sort.Strings(ds)
		for _, d := range ds {
			if err := emit(meta("thread_name", pid, tidOf[tidKey{n, d}], d)); err != nil {
				return err
			}
		}
	}

	us := func(t units.Tick) int64 { return int64(t) * 1000 } // ticks are ms
	complete := func(name, cat string, pid, tid int, start, end units.Tick, args []Field) []byte {
		b := append([]byte(nil), `{"ph":"X","name":`...)
		b = appendJSONString(b, name)
		b = append(b, `,"cat":`...)
		b = appendJSONString(b, cat)
		b = append(b, `,"pid":`...)
		b = strconv.AppendInt(b, int64(pid), 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, us(start), 10)
		b = append(b, `,"dur":`...)
		b = strconv.AppendInt(b, us(end-start), 10)
		b = append(b, `,"args":{`...)
		for i, f := range args {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, f.Key)
			b = append(b, ':')
			b = appendJSONValue(b, f)
		}
		return append(b, `}}`...)
	}
	instant := func(name string, pid, tid int, at units.Tick) []byte {
		b := append([]byte(nil), `{"ph":"i","s":"t","name":`...)
		b = appendJSONString(b, name)
		b = append(b, `,"pid":`...)
		b = strconv.AppendInt(b, int64(pid), 10)
		b = append(b, `,"tid":`...)
		b = strconv.AppendInt(b, int64(tid), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, us(at), 10)
		return append(b, '}')
	}

	for _, s := range spans {
		jobName := "job " + strconv.FormatInt(s.Job, 10)
		for i, a := range s.Attempts {
			if a.Machine == "" {
				continue
			}
			n := node(a.Machine)
			pid, tid := pidOf[n], tidOf[tidKey{n, ""}]
			end := a.End
			if a.Open || end < 0 {
				continue
			}
			outcome := "completed"
			if a.Crashed {
				outcome = "crashed"
			}
			args := []Field{
				Str("machine", a.Machine), Int("attempt", i+1),
				Str("outcome", outcome), Int("queued_ms", a.Match-s.Submit),
			}
			if a.AdmitWait > 0 {
				args = append(args, Int("admit_wait_ms", a.AdmitWait))
			}
			if err := emit(complete(jobName, "attempt", pid, tid, a.Match, end, args)); err != nil {
				return err
			}
			for _, o := range a.Offloads {
				if o.Device == "" || (o.Open && end < o.Start) {
					continue
				}
				oEnd := o.End
				if o.Open {
					oEnd = end
				}
				dn := node(o.Device)
				oArgs := []Field{Int("threads", o.Threads), Bool("completed", o.Completed)}
				if o.QueueWait > 0 {
					oArgs = append(oArgs, Int("queue_wait_ms", o.QueueWait))
				}
				if err := emit(complete(jobName, "offload", pidOf[dn], tidOf[tidKey{dn, o.Device}], o.Start, oEnd, oArgs)); err != nil {
					return err
				}
			}
			if a.OOMKilled {
				if err := emit(instant(jobName+" OOM-killed", pid, tid, end)); err != nil {
					return err
				}
			}
			if a.ContainerKilled {
				if err := emit(instant(jobName+" container-killed", pid, tid, end)); err != nil {
					return err
				}
			}
		}
	}
	_, err := w.Write([]byte("\n]}\n"))
	return err
}
