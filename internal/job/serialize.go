package job

import (
	"encoding/json"
	"fmt"
	"io"

	"phishare/internal/units"
)

// JSON serialization of complete job sets — including phase profiles — so
// that workloads generated by cmd/phigen (or written by hand, or converted
// from real cluster accounting logs) can be replayed by cmd/phisched and
// the library. The wire format is versioned to keep old sets loadable.

// formatVersion identifies the wire format.
const formatVersion = 1

type fileJSON struct {
	Version int       `json:"version"`
	Jobs    []jobJSON `json:"jobs"`
}

type jobJSON struct {
	ID           int         `json:"id"`
	Name         string      `json:"name"`
	Workload     string      `json:"workload"`
	MemMB        int         `json:"mem_mb"`
	Threads      int         `json:"threads"`
	ActualPeakMB int         `json:"actual_peak_mb"`
	Phases       []phaseJSON `json:"phases"`
}

type phaseJSON struct {
	Kind          string `json:"kind"` // "host" or "offload"
	DurationMS    int64  `json:"duration_ms"`
	Threads       int    `json:"threads,omitempty"`
	TransferInMB  int    `json:"transfer_in_mb,omitempty"`
	TransferOutMB int    `json:"transfer_out_mb,omitempty"`
}

// toJSON converts one job to its wire form.
func toJSON(j *Job) jobJSON {
	jj := jobJSON{
		ID:           j.ID,
		Name:         j.Name,
		Workload:     j.Workload,
		MemMB:        int(j.Mem),
		Threads:      int(j.Threads),
		ActualPeakMB: int(j.ActualPeakMem),
		Phases:       make([]phaseJSON, len(j.Phases)),
	}
	for k, p := range j.Phases {
		jj.Phases[k] = phaseJSON{
			Kind:          p.Kind.String(),
			DurationMS:    int64(p.Duration),
			Threads:       int(p.Threads),
			TransferInMB:  int(p.TransferIn),
			TransferOutMB: int(p.TransferOut),
		}
	}
	return jj
}

// WriteJSON serializes the job set.
//
//philint:ignore deadapi reference oracle: job's TestStreamWriterMatchesWriteJSON holds StreamWriter to its bytes
func WriteJSON(w io.Writer, jobs []*Job) error {
	out := fileJSON{Version: formatVersion, Jobs: make([]jobJSON, len(jobs))}
	for i, j := range jobs {
		out.Jobs[i] = toJSON(j)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// StreamWriter emits the WriteJSON wire format one job at a time, so a
// generator can serialize a million-job set without ever holding it:
// NewStreamWriter, Write per job, Close. The output is byte-identical to
// WriteJSON over the same sequence (TestStreamWriterMatchesWriteJSON).
type StreamWriter struct {
	w     io.Writer
	wrote bool
	n     int
}

// NewStreamWriter opens the job-set envelope on w.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	if _, err := fmt.Fprintf(w, "{\n  \"version\": %d,\n  \"jobs\": [", formatVersion); err != nil {
		return nil, err
	}
	return &StreamWriter{w: w}, nil
}

// Write appends one job.
func (sw *StreamWriter) Write(j *Job) error {
	b, err := json.MarshalIndent(toJSON(j), "    ", "  ")
	if err != nil {
		return err
	}
	sep := "\n    "
	if sw.wrote {
		sep = ",\n    "
	}
	sw.wrote = true
	sw.n++
	if _, err := io.WriteString(sw.w, sep); err != nil {
		return err
	}
	_, err = sw.w.Write(b)
	return err
}

// Count returns the number of jobs written so far.
func (sw *StreamWriter) Count() int { return sw.n }

// Close terminates the envelope. The underlying writer stays open.
func (sw *StreamWriter) Close() error {
	tail := "]\n}\n"
	if sw.wrote {
		tail = "\n  ]\n}\n"
	}
	_, err := io.WriteString(sw.w, tail)
	return err
}

// ReadJSON deserializes and validates a job set.
func ReadJSON(r io.Reader) ([]*Job, error) {
	var in fileJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("job: decoding job set: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("job: data after the job set")
	}
	if in.Version != formatVersion {
		return nil, fmt.Errorf("job: unsupported job-set version %d (want %d)", in.Version, formatVersion)
	}
	jobs := make([]*Job, len(in.Jobs))
	for i, jj := range in.Jobs {
		j := &Job{
			ID:            jj.ID,
			Name:          jj.Name,
			Workload:      jj.Workload,
			Mem:           units.MB(jj.MemMB),
			Threads:       units.Threads(jj.Threads),
			ActualPeakMem: units.MB(jj.ActualPeakMB),
			Phases:        make([]Phase, len(jj.Phases)),
		}
		for k, pp := range jj.Phases {
			var kind PhaseKind
			switch pp.Kind {
			case "host":
				kind = HostPhase
			case "offload":
				kind = OffloadPhase
			default:
				return nil, fmt.Errorf("job: %s phase %d has unknown kind %q", j.Name, k, pp.Kind)
			}
			j.Phases[k] = Phase{
				Kind:        kind,
				Duration:    units.Tick(pp.DurationMS),
				Threads:     units.Threads(pp.Threads),
				TransferIn:  units.MB(pp.TransferInMB),
				TransferOut: units.MB(pp.TransferOutMB),
			}
		}
		jobs[i] = j
	}
	if err := ValidateAll(jobs); err != nil {
		return nil, fmt.Errorf("job: loaded set invalid: %w", err)
	}
	return jobs, nil
}
